"""The benchmark's tracer wraps layer functions by name; each must still exist and run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    # read-only: no bytecode cache is written next to the benchmark sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(monkeypatch):
    layers = _load_tracing(monkeypatch).LAYERS
    missing = [f"{mod}.{fn}" for mod, fns in layers.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"checkerboard.{mod}"), fn, None))]
    assert not missing
    assert {"build_certificate"} <= set(layers["report"])
    assert {"is_ppt", "partial_transpose_matrix"} <= set(layers["criteria"])
    assert {"theorem2_product"} <= set(layers["subfamily"])


def test_every_sized_input_is_a_traced_layer(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert set(tracing.INPUT_BITS) <= set(tracing.SPAN_NAMES)


@pytest.mark.parametrize("family", ["full", "ppt"])
def test_traced_max_rank_scan_sizes_every_rank_input(monkeypatch, capsys, family):
    """The tracer sizes ``rank``'s argument as a GMat, on the certified path and the fallback."""
    from checkerboard import counting
    from checkerboard.cli import main
    from checkerboard.family import CheckerParams

    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        assert main(["scan", "--family", family, "--samples", "2", "--target", "max-rank"]) == 0
        # the all-zero point reaches the exact fallback rank
        assert counting.jacobian_rank_psi(CheckerParams()) == 0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    jacobian = "counting.jacobian_rank_psi" if family == "full" else "counting.jacobian_rank_lambda"
    assert {jacobian, "matrices.rank", "counting.jacobian_rank_psi"} <= names
    assert "jets.jet_rank" not in names
    assert tracer.input_bits["matrices"] > 0
    assert "max_jacobian_rank=" + ("28" if family == "full" else "12") in capsys.readouterr().out


def test_traced_scans_and_witness_certify_size_char_poly_inputs(monkeypatch, capsys, tmp_path):
    """The tracer runs over the integer-grid classification and sizes char_poly's input."""
    import json

    from checkerboard import presets
    from checkerboard.cli import main
    from checkerboard.io import checker_params_to_doc, witness_to_doc

    params, witness = tmp_path / "full.json", tmp_path / "witness.json"
    params.write_text(json.dumps(checker_params_to_doc(presets.ONE_DISTILLABLE_PARAMS)))
    witness.write_text(json.dumps(witness_to_doc(presets.ONE_DISTILLABLE_WITNESS)))
    tracer = _load_tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        for family in ("full", "ppt"):
            assert main(["scan", "--family", family, "--samples", "10"]) == 0
        capsys.readouterr()
        assert main(["certify", "--input", str(params), "--witness", str(witness)]) == 0
    finally:
        tracer.uninstall()
    assert json.loads(capsys.readouterr().out)["witness"]["one_distillable"] is True
    names = {span[0] for span in tracer.spans}
    assert "charpoly.char_poly" in names
    assert tracer.input_bits["charpoly"] > 0
