"""The contract of every immutable record in the package (``checkerboard.records``).

Each record builds by position and by keyword in its field order, with
its defaults; rejects an unknown, missing or repeated argument with a
TypeError and any assignment or deletion with an AttributeError; and
compares, hashes and prints exactly as the frozen dataclass with the same
fields did, which each test builds as a reference twin.  Cached
properties are computed once per instance and never enter equality.
"""
from dataclasses import make_dataclass
from fractions import Fraction

import pytest

from checkerboard import presets
from checkerboard.charpoly import Inertia
from checkerboard.criteria import WitnessVector
from checkerboard.family import PARAM_LETTERS, CheckerParams, StateMatrix, build_state
from checkerboard.gaussian import ZERO, GaussRat
from checkerboard.records import record
from checkerboard.report import Classification, classify
from checkerboard.reproduce import ItemResult, ReproItem
from checkerboard.subfamily import BrussPeresParams, SubfamilyParams
from conftest import replace


def _sample(cls):
    """One instance of each record, built as the package builds it."""
    if cls is Inertia:
        return Inertia(2, 0, 7)
    if cls is WitnessVector:
        return WitnessVector(tuple(GaussRat(k, -k) for k in range(9)))
    if cls is CheckerParams:
        return presets.REDUCTION_VIOLATING_PARAMS
    if cls is StateMatrix:
        return build_state(presets.ONE_DISTILLABLE_PARAMS)
    if cls is SubfamilyParams:
        return presets.SUBFAMILY_RANK_POINT
    if cls is BrussPeresParams:
        return BrussPeresParams(Fraction(1, 2), Fraction(3), GaussRat(1, 1), GaussRat(2),
                                GaussRat(0, 1), GaussRat(3, -1))
    if cls is Classification:
        return classify("ppt", presets.SUBFAMILY_RANK_POINT)
    if cls is ItemResult:
        return ItemResult(True, "4", "4")
    return ReproItem(7, "a title", _sample)


FIELDS = {
    Inertia: ("n_neg", "n_zero", "n_pos"),
    WitnessVector: ("components",),
    CheckerParams: tuple(PARAM_LETTERS),
    StateMatrix: ("blocks", "scale"),
    SubfamilyParams: ("t", "x", "y", "a", "b", "c", "f", "j", "k", "l", "m", "p", "s"),
    BrussPeresParams: ("t", "x", "a", "b", "c", "f"),
    Classification: ("kind", "params", "state", "rank", "factors", "denominators", "ppt",
                     "inertia", "gamma_fixed", "reduction_violated"),
    ItemResult: ("ok", "expected", "computed"),
    ReproItem: ("number", "title", "run"),
}
RECORDS = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)


def _values(rec) -> tuple:
    return tuple(getattr(rec, name) for name in rec._fields)


def _twin(rec):
    """The frozen dataclass of the same name and fields, holding the same values."""
    twin = make_dataclass(type(rec).__name__, rec._fields, frozen=True)
    return twin(*_values(rec))


@RECORDS
def test_fields_in_order_and_both_constructions_agree(cls):
    rec = _sample(cls)
    assert type(rec) is cls and rec._fields == FIELDS[cls]
    assert cls(*_values(rec)) == rec
    assert cls(**dict(zip(rec._fields, _values(rec)))) == rec
    head, *tail = _values(rec)
    assert cls(head, **dict(zip(rec._fields[1:], tail))) == rec


@RECORDS
def test_bad_arguments_are_type_errors(cls):
    rec = _sample(cls)
    values = _values(rec)
    kwargs = dict(zip(rec._fields, values))
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=1)
    with pytest.raises(TypeError):
        cls(values[0], **kwargs)
    if cls is not CheckerParams:  # the one record with defaults
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls()


@RECORDS
def test_records_are_immutable(cls):
    rec = _sample(cls)
    for name in (rec._fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert _values(rec) == _values(_sample(cls))


@RECORDS
def test_equality_hash_and_repr_match_the_dataclass(cls):
    rec = _sample(cls)
    twin = _twin(rec)
    assert repr(rec) == repr(twin)
    assert rec == cls(*_values(rec)) and not rec != cls(*_values(rec))
    assert rec != twin and twin != rec  # equality needs the same type
    assert hash(rec) == hash(twin) == hash(cls(*_values(rec)))
    changed = replace(rec, **{rec._fields[-1]: object()})
    assert changed != rec and _values(changed)[:-1] == _values(rec)[:-1]


def test_checker_params_defaults_are_zero():
    assert _values(CheckerParams()) == (ZERO,) * 18
    assert CheckerParams(b=GaussRat(1)) == CheckerParams(ZERO, GaussRat(1))
    assert CheckerParams.from_dict({"c": GaussRat(2)}).c == GaussRat(2)


@pytest.mark.parametrize("make, name", [
    (lambda: replace(presets.ONE_DISTILLABLE_PARAMS), "lifted"),
    (lambda: build_state(presets.ONE_DISTILLABLE_PARAMS), "gamma"),
    (lambda: classify("ppt", presets.SUBFAMILY_RANK_POINT), "t1"),
    (lambda: classify("ppt", presets.SUBFAMILY_RANK_POINT), "t2"),
], ids=["lifted", "gamma", "t1", "t2"])
def test_cached_properties_are_computed_once_and_stay_out_of_equality(make, name):
    rec, fresh = make(), make()
    calls = []
    prop = type(rec).__dict__[name]
    original = prop.func
    prop.func = lambda self: calls.append(1) or original(self)
    try:
        first = getattr(rec, name)
        assert getattr(rec, name) is first
    finally:
        prop.func = original
    assert calls == [1]
    assert rec == replace(rec) and hash(rec) == hash(replace(rec))
    assert getattr(fresh, name) == first


def test_a_class_with_its_own_init_keeps_it():
    @record
    class Pair:
        left: int
        right: int = 5

        def __init__(self, left, right=5):
            vars(self).update(left=left, right=right * 2)

    assert (Pair(1).left, Pair(1).right) == (1, 10)
    assert repr(Pair(1, 2)) == "test_a_class_with_its_own_init_keeps_it.<locals>.Pair(left=1, right=4)"
