"""The classification record behind certify, build, scan and reproduce."""

import importlib
import json
import sys
from collections import Counter

import pytest
from hypothesis import assume, given

from checkerboard import family, presets, reproduce, sampling
from checkerboard.cli import main
from checkerboard.criteria import is_ppt, partial_transpose_matrix, reduction_criterion
from checkerboard.errors import SingularParameterError
from checkerboard.family import build_state, theorem1_product
from checkerboard.io import subfamily_params_to_doc
from checkerboard.report import Classification, build_certificate, classify
from checkerboard.subfamily import derive_full_params, theorem2_product
from conftest import SIZED_POINTS, generate_only
from io_reference import checker_params_to_doc, witness_to_doc
from reference import theorem1_product as reference_t1
from reference import theorem2_product as reference_t2
from reference import unnormalized
from test_golden import GOLDEN, run_cli_case

COUNTED = (
    ("subfamily", "derive_full_params"),
    ("family", "build_state"),
    ("family", "partial_transpose_blocks"),
    ("family", "theorem_factors"),
)


def _namespaces() -> list:
    return [mod for name, mod in sys.modules.items()
            if mod is not None and name.split(".")[0] == "checkerboard"]


def _count_calls(monkeypatch, counted) -> Counter:
    """Counts the calls of the ``counted`` functions that return, in every checkerboard namespace."""
    counts = Counter()
    namespaces = _namespaces()
    for mod_name, fn_name in counted:
        original = getattr(importlib.import_module(f"checkerboard.{mod_name}"), fn_name)

        def wrapper(*args, _fn=original, _name=fn_name, **kwargs):
            result = _fn(*args, **kwargs)
            counts[_name] += 1
            return result

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, attr, wrapper)
    return counts


@pytest.fixture
def calls(monkeypatch):
    return _count_calls(monkeypatch, COUNTED)


def _expected(states: int, ppt_states: int) -> Counter:
    return Counter(derive_full_params=ppt_states, build_state=states,
                   partial_transpose_blocks=states, theorem_factors=states)


@pytest.mark.parametrize("kind,params", [
    ("full", presets.ONE_DISTILLABLE_PARAMS),
    ("ppt", presets.SUBFAMILY_RANK_POINT),
])
def test_certificate_computes_each_fact_once(calls, kind, params):
    build_certificate(kind, params)
    assert calls == _expected(1, kind == "ppt")


def test_build_computes_each_fact_once(calls, tmp_path, capsys):
    path = tmp_path / "ppt.json"
    path.write_text(json.dumps(subfamily_params_to_doc(presets.SUBFAMILY_RANK_POINT)))
    assert main(["build", "--input", str(path), "--out", str(tmp_path / "out.json")]) == 0
    assert calls == _expected(1, 1)


@pytest.mark.parametrize("family", ["full", "ppt"])
def test_scan_computes_each_fact_once_per_sample(calls, family, capsys):
    # seed 0 draws no singular ppt sample among the first four
    assert main(["scan", "--family", family, "--samples", "4"]) == 0
    assert "valid=4 " in capsys.readouterr().out
    assert calls == _expected(4, 4 if family == "ppt" else 0)


def test_certify_with_witness_builds_gamma_once(calls, tmp_path, capsys):
    params, witness = tmp_path / "full.json", tmp_path / "witness.json"
    params.write_text(json.dumps(checker_params_to_doc(presets.ONE_DISTILLABLE_PARAMS)))
    witness.write_text(json.dumps(witness_to_doc(presets.ONE_DISTILLABLE_WITNESS)))
    assert main(["certify", "--input", str(params), "--witness", str(witness)]) == 0
    assert json.loads(capsys.readouterr().out)["witness"]["one_distillable"] is True
    assert calls == _expected(1, 0)


def test_item10_completes_each_sample_once(calls):
    # the sampler's completion is reused; singular draws raise and are not counted
    assert reproduce.item10().ok
    assert calls["derive_full_params"] == 100


def test_classify_agrees_with_the_criteria():
    for idx in range(4):
        sp, sp_full = sampling.random_subfamily_params(sampling.rng_for(23, idx))
        p = sampling.random_checker_params(sampling.rng_for(23, idx))
        for kind, params, full in (("ppt", sp, sp_full), ("full", p, p)):
            rec = classify(kind, params)
            state = build_state(full)
            ppt, inert = is_ppt(state)
            assert rec.state == state
            assert (rec.ppt, rec.inertia) == (ppt, inert)
            assert rec.gamma_fixed == (partial_transpose_matrix(unnormalized(state))
                                       == unnormalized(state))
            assert rec.reduction_violated == reduction_criterion(state)
            assert rec.t1 == theorem1_product(full)
            assert rec.t2 == (theorem2_product(sp) if kind == "ppt" else None)


@pytest.mark.parametrize("kind", ["full", "ppt"])
@pytest.mark.parametrize("size,examples", [("default", 20), ("5-digit", 10), ("20-digit", 2)])
def test_t1_and_t2_from_reduced_factors_equal_the_products(kind, size, examples):
    """classify's t1, t2 and genericity flags agree with the products on the GaussRat parameters.

    The products are the program's entry points and the reference forms
    on the unlifted parameters; each flag is whether its product is nonzero.
    """
    @generate_only(examples)
    @given(SIZED_POINTS[kind][size])
    def check(params):
        try:
            rec = classify(kind, params)
        except SingularParameterError:
            assume(False)
        full = derive_full_params(params) if kind == "ppt" else params
        t1 = theorem1_product(full)
        assert rec.t1 == t1 == reference_t1(full)
        assert rec.generic_t1 is bool(t1)
        if kind == "ppt":
            t2 = theorem2_product(params)
            assert rec.t2 == t2 == reference_t2(params)
            assert rec.generic_t2 is bool(t2)
        else:
            assert rec.t2 is None and rec.generic_t2 is None

    check()


def _forbid_values(monkeypatch) -> None:
    """Every way from the factor pairs back to a reduced t1 or t2 raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Theorem 1/2 value was reduced")

    monkeypatch.setattr(Classification, "t1", property(refuse))
    monkeypatch.setattr(Classification, "t2", property(refuse))
    for ns in _namespaces():
        for attr, value in list(vars(ns).items()):
            if value is family.factor_over:
                monkeypatch.setattr(ns, attr, refuse)


@pytest.mark.parametrize("name", ["scan_full", "scan_ppt", "scan_ppt_singular",
                                  "scan_full_max_rank", "scan_ppt_max_rank"])
def test_scan_reads_the_flags_and_never_reduces(monkeypatch, tmp_path, name):
    """With the value path raising, every golden scan still prints its golden bytes."""
    _forbid_values(monkeypatch)
    with pytest.raises(AssertionError, match="reduced"):
        classify("full", presets.ONE_DISTILLABLE_PARAMS).t1
    for fname, text in run_cli_case(name, tmp_path).items():
        assert text == (GOLDEN / fname).read_text(), fname


def test_reduction_criterion_runs_only_on_npt_states(monkeypatch, capsys):
    """A PPT state satisfies the reduction criterion, so classify skips the test."""
    counts = _count_calls(monkeypatch, (("criteria", "reduction_criterion"),))
    assert main(["scan", "--family", "ppt", "--samples", "10"]) == 0
    assert counts["reduction_criterion"] == 0
    rec = classify("full", presets.REDUCTION_VIOLATING_PARAMS)
    assert not rec.ppt and rec.reduction_violated
    assert counts["reduction_criterion"] == 1


def test_classify_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown certificate kind"):
        classify("mixed", presets.ONE_DISTILLABLE_PARAMS)
