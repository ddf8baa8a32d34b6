"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import percentile, tail_percentile  # noqa: E402


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    assert tail_percentile(20) == 50
    assert tail_percentile(65) == 84  # rank ceil(0.84*65) = 55, ten beyond
    assert tail_percentile(11) == 9
    assert tail_percentile(10) == 100
    for n in range(11, 400):
        p = tail_percentile(n)
        assert n - -(-p * n // 100) >= 10
        assert p == 99 or n - -(-(p + 1) * n // 100) < 10


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([7.0], 99) == 7.0
    # The tail percentile of 100 samples has exactly ten larger ones.
    assert sum(v > percentile(values, tail_percentile(100)) for v in values) == 10


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [20, 30];
    # the harness sized b's input in [42, 48].
    spans = [
        ["cli.main", 0, 100, -1, 0],
        ["criteria.is_ppt", 10, 40, 0, 0],
        ["charpoly.char_poly", 20, 30, 1, 0],
        [tracing.BITS_SPAN, 42, 48, 0, 0],
        ["matrices.rank", 50, 90, 0, 0],
    ]
    assert tracing.self_times(spans) == [24, 20, 10, 6, 40]
    metrics = tracing.layer_metrics(spans, requests=2, request_ns=100)
    assert metrics["cli.main.calls"] == 0.5
    assert metrics["cli.main.self_share"] == 0.24
    assert metrics["criteria.is_ppt.self_ms"] == 20 / 1e6 / 2
    assert metrics["matrices.rank.self_share"] == 0.4
    assert metrics["jets.jet_rank.calls"] == 0
    assert not any(name.startswith(tracing.BITS_SPAN) for name in metrics)
    shares = sum(v for k, v in metrics.items() if k.endswith("self_share"))
    assert abs(shares - 0.94) < 1e-12


def _tree(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_generator_is_deterministic_in_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        first, _ = workloads.generate(workload, 3, tmp_path / workload / "a")
        again, _ = workloads.generate(workload, 3, tmp_path / workload / "b")
        workloads.generate(workload, 4, tmp_path / workload / "c")
        assert first == again
        assert _tree(tmp_path / workload / "a") == _tree(tmp_path / workload / "b")
        assert _tree(tmp_path / workload / "a") != _tree(tmp_path / workload / "c")


def test_digest_prefix_holds_every_kind_of_request(tmp_path):
    for workload in workloads.WORKLOADS:
        requests, _ = workloads.generate(workload, 1, tmp_path / workload)
        prefix = requests[:workloads.DIGEST_REQUESTS[workload]]
        assert ({(r["op"], r["family"]) for r in prefix}
                == {(r["op"], r["family"]) for r in requests})


def _run_cli(argv, cwd: Path) -> str:
    from checkerboard.cli import main

    out = io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
    finally:
        os.chdir(here)
    return out.getvalue()


def _record(stdout: str) -> dict:
    return {"rc": 0, "error": None, "stdout": stdout, "files": {}}


def test_gate_rejects_a_wrong_inertia(tmp_path):
    requests, _ = workloads.generate("certify-bigcoef", 5, tmp_path)
    request = requests[0]
    assert request["argv"][0] == "certify" and request["family"] == "full"
    stdout = _run_cli(request["argv"], tmp_path)
    tally, counts = gate.check_request(request, _record(stdout), tmp_path)
    assert tally.failures == [] and counts["items"] == 1

    cert = json.loads(stdout)
    inert = cert["ppt"]["inertia"]
    assert inert["neg"] > 0 and inert["pos"] > 0
    inert["neg"] -= 1
    inert["pos"] += 1
    tally, _ = gate.check_request(request, _record(json.dumps(cert)), tmp_path)
    assert "n_neg of rho^Gamma" in tally.failures


def test_gate_rejects_a_wrong_scan_row(tmp_path):
    request = {"argv": ["scan", "--family", "full", "--samples", "3", "--seed", "9"],
               "family": "full", "op": "scan"}
    stdout = _run_cli(request["argv"], tmp_path)
    tally, counts = gate.check_request(request, _record(stdout), tmp_path)
    assert tally.failures == [] and counts["items"] == 3

    lines = stdout.splitlines()
    cells = lines[1].split(",")
    cells[5] = str(int(cells[5]) + 1)
    lines[1] = ",".join(cells)
    tally, _ = gate.check_request(request, _record("\n".join(lines) + "\n"), tmp_path)
    assert tally.failures


def test_gate_rejects_a_jacobian_rank_lowered_by_one(tmp_path):
    for family in ("full", "ppt"):
        request = {"argv": ["scan", "--family", family, "--samples", "2", "--seed", "2",
                            "--target", "max-rank"], "family": family, "op": "scan"}
        stdout = _run_cli(request["argv"], tmp_path)
        tally, counts = gate.check_request(request, _record(stdout), tmp_path)
        assert tally.failures == [] and tally.unchecked == 0 and counts["items"] == 2

        lines = stdout.splitlines()
        cells = lines[1].split(",")
        cells[7] = str(int(cells[7]) - 1)
        lines[1] = ",".join(cells)
        tally, _ = gate.check_request(request, _record("\n".join(lines) + "\n"), tmp_path)
        assert "Jacobian rank" in tally.failures


def test_gate_counts_tracebacks_and_exit_codes():
    request = {"argv": ["scan"], "family": "full", "op": "scan"}
    tally, _ = gate.check_request(request, {"rc": None, "error": "Traceback", "stdout": "",
                                            "files": {}}, None)
    assert "traceback" in tally.failures
    tally, _ = gate.check_request(request, {"rc": 3, "error": None, "stdout": "",
                                            "files": {}}, None)
    assert "exit code 3" in tally.failures


def test_classify_marks_near_zero_values_inconclusive():
    import numpy as np

    assert gate.classify(np.array([-2.0, 0.0, 1e-14, 3.0])) == (1, 2, 1)
    try:
        gate.classify(np.array([-2.0, 1e-8, 3.0]))
    except gate.Inconclusive:
        pass
    else:
        raise AssertionError("a value between the tolerances must be inconclusive")


def test_tracer_patches_every_namespace_and_restores_them():
    from checkerboard import cli, criteria, report

    originals = (cli.main, cli.is_ppt, criteria.is_ppt, report.is_ppt)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.is_ppt is report.is_ppt is criteria.is_ppt
        assert cli.is_ppt is not originals[1]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["scan", "--family", "ppt", "--samples", "2", "--seed", "1"])
    finally:
        tracer.uninstall()
    assert (cli.main, cli.is_ppt, criteria.is_ppt, report.is_ppt) == originals
    names = [span[0] for span in tracer.spans]
    assert names[0] == "cli.main"
    is_ppt = [span for span in tracer.spans if span[0] == "criteria.is_ppt"]
    assert is_ppt and all(tracer.spans[span[3]][0] == "cli.main" for span in is_ppt)
    assert all(span[1] <= span[2] for span in tracer.spans)
    assert tracer.input_bits["charpoly"] > 0
    # The harness sizes char_poly's input in a span of its own, beside the call.
    bits = [span for span in tracer.spans if span[0] == tracing.BITS_SPAN]
    assert bits and all(span[1] <= span[2] for span in bits)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import run

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    span_names = tracing.layer_metrics([], 1, 1)
    expected = {name: run.SPAN_METRIC_UNITS[name.rsplit(".", 1)[1]] for name in span_names}
    expected.update(run.LAYER_EXTRA_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == expected
