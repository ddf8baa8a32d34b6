"""The benchmark's tracer wraps layer functions by name; each must still exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

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
