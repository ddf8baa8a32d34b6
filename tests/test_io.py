from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from checkerboard import presets
from checkerboard.errors import ParseError, SingularParameterError
from checkerboard.family import build_state
from checkerboard.gaussian import GaussRat
from checkerboard.io import (
    format_fraction,
    gauss_to_obj,
    matrix_to_obj,
    obj_to_gauss,
    parse_bruss_peres_doc,
    parse_fraction,
    parse_param_doc,
    parse_witness_doc,
    subfamily_params_to_doc,
)
from checkerboard.subfamily import BrussPeresParams, derive_full_params
from conftest import SIZED_POINTS, generate_only
from io_reference import (
    bruss_peres_params_to_doc,
    checker_params_to_doc,
    gmat_to_obj,
    parse_matrix_obj,
    witness_to_doc,
)
from reference import normalized


def test_fraction_round_trip():
    for fr in (Fraction(0), Fraction(-5), Fraction(3, 7), Fraction(-448, 17 ** 9)):
        assert parse_fraction(format_fraction(fr)) == fr


def _digits_value(text: str) -> int:
    """The integer a digit string spells, read 400 digits at a time."""
    value = 0
    for start in range(0, len(text), 400):
        piece = text[start:start + 400]
        value = value * 10 ** len(piece) + int(piece)
    return value


@pytest.mark.parametrize("value", [
    Fraction(10 ** 5000 + 12345),
    Fraction(-(10 ** 5000 + 1), 7),
    Fraction(3 ** 12000, 2 ** 17000 + 1),
])
def test_format_fraction_past_the_int_str_digit_limit(value):
    """Values of more than 5,000 digits format in chunks; str() would raise."""
    text = format_fraction(value)
    sign = -1 if text.startswith("-") else 1
    num, _, den = text.lstrip("-").partition("/")
    assert len(num) + len(den) > 5000
    assert num[0] != "0" and (not den or den[0] != "0")
    assert Fraction(sign * _digits_value(num), _digits_value(den or "1")) == value


@pytest.mark.parametrize("bad", ["", "1/0", "0.5", "1e3", "1/-2", "a", " 1", None, 3,
                                 "3\n", "1/2\n", "\u0663/\u0664", "\uff13", "1/\u0662"])
def test_fraction_rejects(bad):
    with pytest.raises(ParseError):
        parse_fraction(bad)


def test_gauss_round_trip():
    z = GaussRat(Fraction(-3, 4), Fraction(7, 5))
    assert obj_to_gauss(gauss_to_obj(z)) == z


def test_gauss_obj_strictness():
    with pytest.raises(ParseError):
        obj_to_gauss({"re": "1"})
    with pytest.raises(ParseError):
        obj_to_gauss({"re": "1", "im": "0", "extra": "1"})
    with pytest.raises(ParseError):
        obj_to_gauss("1+i")


# Fraction strings as a document may spell them: signed zeros, leading zeros, unreduced.
fraction_strings = st.from_regex(r"-?[0-9]{1,25}(/0{0,2}[1-9][0-9]{0,24})?", fullmatch=True)


@given(fraction_strings, fraction_strings)
@example("-0", "0/7")
@example("007/0010", "-00/03")
@example("0/7", "-0")
def test_obj_to_gauss_is_the_gauss_rat_of_the_parsed_parts(re, im):
    z = obj_to_gauss({"re": re, "im": im})
    want = GaussRat(parse_fraction(re), parse_fraction(im))
    assert type(z) is GaussRat and (z.x, z.y, z.d) == (want.x, want.y, want.d)


@pytest.mark.parametrize("bad", ["1/0", "-0/00", "0.5", "1/-2", " 1", None, 3, "1" * 5000,
                                 "1/" + "2" * 5000])
def test_obj_to_gauss_raises_the_fraction_errors(bad):
    """A bad part raises the ParseError, message included, that parse_fraction raises."""
    with pytest.raises(ParseError) as want:
        parse_fraction(bad)
    for obj in ({"re": bad, "im": "1"}, {"re": "1/2", "im": bad}, {"re": bad, "im": "1/0"}):
        with pytest.raises(ParseError) as got:
            obj_to_gauss(obj)
        assert str(got.value) == str(want.value)


def test_full_param_doc_round_trip():
    doc = checker_params_to_doc(presets.ONE_DISTILLABLE_PARAMS)
    kind, parsed = parse_param_doc(doc)
    assert kind == "full"
    assert parsed == presets.ONE_DISTILLABLE_PARAMS


def test_ppt_param_doc_round_trip():
    doc = subfamily_params_to_doc(presets.SUBFAMILY_RANK_POINT)
    kind, parsed = parse_param_doc(doc)
    assert kind == "ppt"
    assert parsed == presets.SUBFAMILY_RANK_POINT


def test_param_doc_rejects_unknown_keys():
    doc = checker_params_to_doc(presets.ONE_DISTILLABLE_PARAMS)
    doc["params"]["o"] = {"re": "1", "im": "0"}  # the letter "o" is not a parameter
    with pytest.raises(ParseError):
        parse_param_doc(doc)


def test_param_doc_rejects_missing_and_extra_top_level():
    with pytest.raises(ParseError):
        parse_param_doc({"family": "full"})
    doc = checker_params_to_doc(presets.ONE_DISTILLABLE_PARAMS)
    doc["comment"] = "hi"
    with pytest.raises(ParseError):
        parse_param_doc(doc)
    with pytest.raises(ParseError):
        parse_param_doc({"family": "other", "params": {}})


def test_bruss_peres_doc_round_trip():
    bp = BrussPeresParams(
        t=Fraction(1, 2), x=Fraction(-3), a=GaussRat(1, 1), b=GaussRat(2),
        c=GaussRat(0, 1), f=GaussRat(1, -1),
    )
    assert parse_bruss_peres_doc(bruss_peres_params_to_doc(bp)) == bp


def test_witness_doc_round_trips():
    w = presets.ONE_DISTILLABLE_WITNESS
    doc = witness_to_doc(w)
    assert parse_witness_doc(doc) == w
    pairs_doc = {
        "pairs": [
            [[gauss_to_obj(GaussRat(1)), gauss_to_obj(GaussRat(0)), gauss_to_obj(GaussRat(0))],
             [gauss_to_obj(GaussRat(0)), gauss_to_obj(GaussRat(1)), gauss_to_obj(GaussRat(0))]],
        ]
    }
    w2 = parse_witness_doc(pairs_doc)
    assert w2.components[1] == GaussRat(1)
    assert sum(1 for z in w2.components if z) == 1


def test_witness_doc_rejects():
    with pytest.raises(ParseError):
        parse_witness_doc({})
    with pytest.raises(ParseError):
        parse_witness_doc({"components": [], "pairs": []})
    with pytest.raises(ParseError):
        parse_witness_doc({"components": [gauss_to_obj(GaussRat(1))] * 8})
    with pytest.raises(ParseError):
        parse_witness_doc({"pairs": [[[gauss_to_obj(GaussRat(1))] * 2] * 2]})


def test_matrix_round_trip():
    state = build_state(presets.ONE_DISTILLABLE_PARAMS)
    assert parse_matrix_obj(matrix_to_obj(state)) == normalized(state)


@pytest.mark.parametrize("kind", ["full", "ppt"])
@pytest.mark.parametrize("size,examples", [("default", 20), ("5-digit", 10), ("20-digit", 3)])
def test_block_dump_equals_the_9x9_dump(kind, size, examples):
    """The dump read off the block pair is that of the normalized 9x9 matrix, entry for entry."""
    @generate_only(examples)
    @given(SIZED_POINTS[kind][size])
    def check(params):
        if kind == "ppt":
            try:
                params = derive_full_params(params)
            except SingularParameterError:
                assume(False)
        state = build_state(params)
        assert matrix_to_obj(state) == gmat_to_obj(normalized(state))

    check()


def test_matrix_rejects_ragged():
    with pytest.raises(ParseError):
        parse_matrix_obj([[gauss_to_obj(GaussRat(1))], []])
