"""Differential oracle: the integer-lift classification against the Fraction one.

``reference`` holds the Fraction-matrix classification the package used
before; every field of ``classify``, the state rank and the certificate
with and without a witness must equal it, on both families, for the
default sampler, 5-digit and 20-digit coefficients, sparse points and
points with a single nonzero parameter.  The full family also has points
where one generating vector is zero (its D_k = 1) or has denominators
coprime to the other vectors', so that the per-vector lift
(``CheckerParams.lifted``) differs from the common one.  A point either
side rejects must be rejected by the other with the same error.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from checkerboard.cli import main
from checkerboard.criteria import WitnessVector
from checkerboard.errors import CheckerboardError
from checkerboard.family import PARAM_LETTERS, VECTOR_LETTERS, CheckerParams
from checkerboard.gaussian import GaussRat
from checkerboard.io import checker_params_to_doc
from checkerboard.matrices import rank
from checkerboard.report import classify, format_certificate
from checkerboard.subfamily import COMPLEX_LETTERS, SubfamilyParams
from conftest import (
    SIZED_POINTS,
    checker_points,
    nonzero_gauss,
    single_nonzero_points,
    small_fractions,
    small_gauss,
    sparse_gauss,
    subfamily_points,
)

witnesses = st.lists(small_gauss, min_size=9, max_size=9).filter(any).map(
    WitnessVector.from_components)


def _single_nonzero_subfamily(key, value):
    values = dict(t=Fraction(0), x=Fraction(0), y=Fraction(0),
                  **{ch: GaussRat(0) for ch in COMPLEX_LETTERS})
    values[key] = value
    return SubfamilyParams(**values)


def _one_vector_from(special, rest):
    """Points whose letters come from ``rest``, except those of one vector, from ``special``."""
    return st.sampled_from(VECTOR_LETTERS).flatmap(lambda letters: st.builds(
        CheckerParams, **{ch: special if ch in letters else rest for ch in PARAM_LETTERS}))


def _gauss_over(dens):
    """Gaussian rationals whose parts have denominators in ``dens``."""
    part = st.builds(Fraction, st.integers(-4, 4), st.sampled_from(dens))
    return st.builds(GaussRat, part, part)


FULL = {
    **SIZED_POINTS["full"],
    "sparse": checker_points(sparse_gauss),
    "single-nonzero": single_nonzero_points,
    "zero-vector": _one_vector_from(st.just(GaussRat(0)), small_gauss),
    "coprime-vector": _one_vector_from(_gauss_over((3, 9)), _gauss_over((1, 2, 4))),
}

PPT = {
    **SIZED_POINTS["ppt"],
    "sparse": subfamily_points(st.just(Fraction(0)) | small_fractions, sparse_gauss),
    # the completion divides by a, b and f, so these points are all rejected
    "single-nonzero": st.one_of(
        st.builds(_single_nonzero_subfamily, st.sampled_from(COMPLEX_LETTERS), nonzero_gauss),
        st.builds(_single_nonzero_subfamily, st.sampled_from("txy"), small_fractions.filter(bool)),
    ),
}

EXAMPLES = {"default": 40, "5-digit": 10, "20-digit": 2, "sparse": 40, "single-nonzero": 20,
            "zero-vector": 20, "coprime-vector": 20}


def assert_matches_reference(kind, params, witness):
    try:
        ref = reference.classify(kind, params)
    except CheckerboardError as exc:
        with pytest.raises(type(exc)) as info:
            classify(kind, params)
        assert str(info.value) == str(exc)
        return
    rec = classify(kind, params)
    assert (rec.kind, rec.params) == (ref.kind, ref.params)
    assert reference.unnormalized(rec.state) == ref.state.unnormalized
    assert rec.state.normalizer == ref.state.normalizer
    assert reference.normalized(rec.state) == ref.state.normalized()
    assert rec.rank == rank(ref.state.unnormalized)
    assert (rec.t1, rec.t2) == (ref.t1, ref.t2)
    assert rec.generic_t1 is bool(ref.t1)
    assert rec.generic_t2 is (None if ref.t2 is None else bool(ref.t2))
    assert (rec.ppt, rec.inertia, rec.pd_gamma) == (ref.ppt, ref.inertia, ref.pd_gamma)
    assert rec.gamma_fixed == ref.gamma_fixed
    assert rec.reduction_violated == ref.reduction_violated
    assert format_certificate(rec) == reference.format_certificate(ref)
    assert format_certificate(rec, witness) == reference.format_certificate(ref, witness)


def _oracle_test(kind, name, strategy):
    @settings(max_examples=EXAMPLES[name], deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(params=strategy, witness=witnesses)
    def test(params, witness):
        assert_matches_reference(kind, params, witness)

    test.__name__ = f"test_{kind}_{name.replace('-', '_')}_matches_reference"
    return test


for _kind, _strategies in (("full", FULL), ("ppt", PPT)):
    for _name, _strategy in _strategies.items():
        _test = _oracle_test(_kind, _name, _strategy)
        globals()[_test.__name__] = _test


def test_all_zero_point_exits_2(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(checker_params_to_doc(CheckerParams())))
    assert main(["certify", "--input", str(path)]) == 2
    assert "all parameters are zero" in capsys.readouterr().err
