import copy
import operator
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkerboard import presets
from checkerboard.errors import ParseError
from checkerboard.gaussian import GaussInt, GaussRat, IUNIT, conj, gauss_over, parse_gauss

from conftest import big_fractions, small_fractions, small_gauss
from reference import FractionGaussRat


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
    """``conj`` keeps the type and negates the imaginary part of a scalar, or swaps a jet's parts."""
    from checkerboard.jets import GaussJet, SplitJet
    from jet_reference import Jet

    for z, want in [(5, 5), (Fraction(1, 3), Fraction(1, 3)), (1 + 2j, 1 - 2j),
                    (GaussRat(1, 2), GaussRat(1, -2))]:
        got = conj(z)
        assert type(got) is type(z) and got == want
    got = conj(GaussInt(4, -5))
    assert type(got) is GaussInt and (got.re, got.im) == (4, 5)
    jet = conj(Jet(GaussRat(1, 2), [GaussRat(3, -4), GaussRat(Fraction(1, 5))]))
    assert type(jet) is Jet
    assert (jet.value, jet.grad) == (GaussRat(1, -2), (GaussRat(3, 4), GaussRat(Fraction(1, 5))))
    # a split jet holds (phi(F), phi(F*)) for the value and each gradient entry: conj swaps them
    split = conj(SplitJet(3, 1, [0, 2], [5, 0], 13))
    assert type(split) is SplitJet
    assert (split.value, split.conj_value, split.grad, split.conj_grad) == (1, 3, [5, 0], [0, 2])
    # so does an exact one, whose components are GaussRats
    one, i = GaussRat(1), GaussRat(0, 1)
    gauss = conj(GaussJet(i, -i, [one, i], [-i, one]))
    assert type(gauss) is GaussJet
    assert (gauss.value, gauss.conj_value) == (-i, i)
    assert (gauss.grad, gauss.conj_grad) == ([-i, one], [one, i])


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


def test_real_values_hash_like_their_fraction_and_int():
    assert GaussRat(3) == 3 and len({GaussRat(3), 3}) == 1
    assert GaussRat(Fraction(1, 2)) == Fraction(1, 2)
    assert len({GaussRat(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert {Fraction(-5, 7): "found"}[GaussRat(Fraction(-5, 7))] == "found"
    assert GaussRat(0, 1) != 0 and GaussRat(1, 1) != 1


def test_constructor_types_and_immutability():
    for bad in (1.5, 1j, "1", GaussRat(1)):
        with pytest.raises(TypeError):
            GaussRat(bad)
    z = GaussRat(Fraction(2, 4), 3)
    assert (z.x, z.y, z.d) == (1, 6, 2)
    for name in ("x", "y", "d", "re", "im"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)


def test_copy_and_pickle_rebuild_the_canonical_value():
    z = GaussRat(Fraction(-3, 4), Fraction(10 ** 30, 7))
    for back in (copy.copy(z), copy.deepcopy(z),
                 *(pickle.loads(pickle.dumps(z, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(back) is GaussRat and (back.x, back.y, back.d) == (z.x, z.y, z.d)
        with pytest.raises(AttributeError):
            back.x = 1


def test_params_holding_gauss_rats_deep_copy():
    p = presets.ONE_DISTILLABLE_PARAMS
    assert copy.deepcopy(p) == p


# Parts of the values compared with the reference: the default sampler's
# fractions, 20-digit fractions, and ints, small and of 25 digits; a third
# of the pairs have a zero real or imaginary part.
parts = st.one_of(small_fractions, big_fractions, st.integers(-9, 9),
                  st.integers(-10 ** 25, 10 ** 25))
pairs = st.one_of(st.tuples(parts, parts), st.tuples(parts, st.just(0)),
                  st.tuples(st.just(Fraction(0)), parts))


def _agrees(z, ref):
    """z is in canonical form and reads exactly like the reference value."""
    assert type(z) is GaussRat
    assert all(type(v) is int for v in (z.x, z.y, z.d))
    assert z.d > 0 and gcd(z.x, z.y, z.d) == 1
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (ref.re, ref.im)
    assert (str(z), repr(z), bool(z)) == (str(ref), repr(ref), bool(ref))


@given(st.one_of(pairs, st.tuples(big_fractions, big_fractions)))
def test_conj_and_negation_equal_gauss_over_of_the_same_triple(p):
    """``conj`` and ``-`` skip the gcd: negating a part of a lowest-terms triple keeps it lowest."""
    z = GaussRat(*p)
    for got, want in ((z.conj(), gauss_over(z.x, -z.y, z.d)), (-z, gauss_over(-z.x, -z.y, z.d))):
        assert type(got) is GaussRat
        assert (got.x, got.y, got.d) == (want.x, want.y, want.d)


@settings(max_examples=300)
@given(pairs, pairs)
def test_operations_match_the_fraction_pair_reference(p, q):
    z, w = GaussRat(*p), GaussRat(*q)
    rz, rw = FractionGaussRat(*p), FractionGaussRat(*q)
    _agrees(z, rz)
    for op in (operator.add, operator.sub, operator.mul):
        _agrees(op(z, w), op(rz, rw))
    if rw:
        _agrees(z / w, rz / rw)
    else:
        with pytest.raises(ZeroDivisionError):
            z / w
    _agrees(z.conj(), rz.conj())
    _agrees(-z, -rz)
    for k in range(4):
        _agrees(z ** k, rz ** k)
    assert type(z.abs2()) is Fraction and z.abs2() == rz.abs2()
    assert complex(z) == complex(rz)
    assert (z == w) == (rz == rw) and (z != w) == (rz != rw)
    if z == w:
        assert hash(z) == hash(w)
    # an int or Fraction on either side
    s = q[0]
    for op in (operator.add, operator.sub, operator.mul):
        _agrees(op(z, s), op(rz, s))
        _agrees(op(s, z), op(s, rz))
    if s:
        _agrees(z / s, rz / s)
    if rz:
        _agrees(s / z, s / rz)
    assert (z == s) == (rz == s) and (s == z) == (s == rz)
    if z == s:
        assert hash(z) == hash(s)
