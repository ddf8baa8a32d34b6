"""The benchmark's tracer wraps layer functions by name; each must still exist and run."""

import importlib

import pytest


def test_every_traced_layer_resolves(bench_module):
    layers = bench_module("tracing").LAYERS
    missing = [f"{mod}.{fn}" for mod, fns in layers.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"checkerboard.{mod}"), fn, None))]
    assert not missing
    assert {"build_certificate"} <= set(layers["report"])
    assert {"is_ppt", "partial_transpose_matrix"} <= set(layers["criteria"])
    assert {"theorem2_product"} <= set(layers["subfamily"])


def test_every_sized_input_is_a_traced_layer(bench_module):
    tracing = bench_module("tracing")
    assert set(tracing.INPUT_BITS) <= set(tracing.SPAN_NAMES)


@pytest.mark.parametrize("family", ["full", "ppt"])
def test_traced_max_rank_scan_sizes_every_rank_input(bench_module, capsys, family):
    """The tracer sizes ``rank``'s argument as a GMat, on the certified path and the fallback."""
    from checkerboard import counting
    from checkerboard.cli import main
    from checkerboard.family import CheckerParams

    tracer = bench_module("tracing").Tracer()
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


def test_traced_scans_and_witness_certify_size_char_poly_inputs(bench_module, capsys, tmp_path):
    """The tracer runs over the integer-grid classification and sizes char_poly's input."""
    import json

    from checkerboard import presets
    from checkerboard.cli import main
    from io_reference import checker_params_to_doc, witness_to_doc

    params, witness = tmp_path / "full.json", tmp_path / "witness.json"
    params.write_text(json.dumps(checker_params_to_doc(presets.ONE_DISTILLABLE_PARAMS)))
    witness.write_text(json.dumps(witness_to_doc(presets.ONE_DISTILLABLE_WITNESS)))
    tracer = bench_module("tracing").Tracer()
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


def test_traced_golden_determinants_size_det_inputs(bench_module):
    """Golden items 3 and 4 reach the traced ``det`` and the char poly under it."""
    from checkerboard import reproduce

    tracer = bench_module("tracing").Tracer()
    tracer.install()
    try:
        assert reproduce.item03().ok and reproduce.item04().ok
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"matrices.det", "charpoly.char_poly"} <= names
    assert tracer.input_bits["matrices"] > 0
