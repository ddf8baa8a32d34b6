"""Byte-identity of the user-visible outputs.

Each case runs one CLI command (or one script) on fixed inputs (the
presets, or the seeded large-coefficient files under ``golden/inputs/``)
and compares what it prints, and for ``build`` the dump it writes, with a
stored file under ``tests/golden/``.  Any change to a certificate, dump,
CSV or script line shows up here.  The scripts' argument checks run
here too, since they share the subprocess runner.

To regenerate after an intended output change, call ``write_golden()``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checkerboard
from checkerboard import presets
from checkerboard.cli import main
from checkerboard.gaussian import GaussRat
from checkerboard.io import checker_params_to_doc, subfamily_params_to_doc
from io_reference import witness_to_doc

GOLDEN = Path(__file__).parent / "golden"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

CLI_CASES = {
    "certify_first": ["certify", "--input", "{first}"],
    "certify_first_witness": ["certify", "--input", "{first}", "--witness", "{witness}"],
    "certify_full": ["certify", "--input", "{full}"],
    "certify_full_witness": ["certify", "--input", "{full}", "--witness", "{witness}"],
    "certify_ppt_jacobian": ["certify", "--input", "{ppt}", "--jacobian"],
    "build_full_witness": ["build", "--input", "{full}", "--witness", "{witness}",
                           "--out", "{out}"],
    "build_ppt": ["build", "--input", "{ppt}", "--out", "{out}"],
    "scan_full": ["scan", "--family", "full", "--samples", "8"],
    "scan_ppt": ["scan", "--family", "ppt", "--samples", "8"],
    "scan_ppt_singular": ["scan", "--family", "ppt", "--samples", "3", "--seed", "30",
                          "--target", "npt"],
    "scan_full_max_rank": ["scan", "--family", "full", "--samples", "2", "--seed", "3",
                           "--target", "max-rank"],
    "scan_ppt_max_rank": ["scan", "--family", "ppt", "--samples", "3", "--seed", "3",
                          "--target", "max-rank"],
    "jacobian_full": ["jacobian", "--input", "{full}"],
    "jacobian_ppt": ["jacobian", "--input", "{ppt}"],
    "jacobian_full_odd_minor": ["jacobian", "--input", "{odd_minor}"],
    # 5-digit numerators and denominators: t1 and t2 run to about 1,200 digits
    "certify_big_full": ["certify", "--input", "{big_full}"],
    "certify_big_ppt": ["certify", "--input", "{big_ppt}"],
    "certify_big_full_witness": ["certify", "--input", "{big_full}", "--witness", "{big_witness}"],
    "certify_big_ppt_witness": ["certify", "--input", "{big_ppt}", "--witness", "{big_witness}"],
    # 100-digit numerators and denominators: the blocks of rho^Gamma have entries
    # of about 23,000 bits (full) and 45,000 bits (ppt)
    "certify_huge_full": ["certify", "--input", "{huge_full}"],
    "certify_huge_ppt": ["certify", "--input", "{huge_ppt}"],
    "build_big_full": ["build", "--input", "{big_full}", "--out", "{out}"],
    "build_big_ppt": ["build", "--input", "{big_ppt}", "--witness", "{big_witness}",
                      "--out", "{out}"],
    "reproduce": ["reproduce"],
}
# golden file stem: (script under scripts/, its arguments)
SCRIPT_CASES = {
    "scan_pd_gamma": ("scan_pd_gamma.py", ["--samples", "40", "--seed", "7"]),
    "rank_survey": ("rank_survey.py", ["--samples", "20", "--seed", "0", "--real-slots"]),
}


def _write_inputs(tmp: Path) -> dict:
    docs = {
        "first": checker_params_to_doc(presets.REDUCTION_VIOLATING_PARAMS),
        "full": checker_params_to_doc(presets.ONE_DISTILLABLE_PARAMS),
        # (f, p) = (1 + i)(g, q): the odd block's leading minor gp - qf vanishes
        "odd_minor": checker_params_to_doc(replace(
            presets.ONE_DISTILLABLE_PARAMS, f=GaussRat(1, -1), p=GaussRat(-1, 1))),
        "ppt": subfamily_params_to_doc(presets.SUBFAMILY_RANK_POINT),
        "witness": witness_to_doc(presets.ONE_DISTILLABLE_WITNESS),
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    paths["out"] = tmp / "dump.json"
    # seeded parameter files kept next to the goldens (seed 17001, 5 digits)
    for name in ("full", "ppt", "witness"):
        paths[f"big_{name}"] = GOLDEN / "inputs" / f"bigcoef_{name}.json"
    # and at 100 digits (seed 28100)
    for name in ("full", "ppt"):
        paths[f"huge_{name}"] = GOLDEN / "inputs" / f"bigcoef100_{name}.json"
    return {key: str(path) for key, path in paths.items()}


def run_cli_case(name: str, tmp: Path) -> dict:
    """{golden file name: output text} for one CLI case."""
    paths = _write_inputs(tmp)
    argv = [arg.format(**paths) for arg in CLI_CASES[name]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    outputs = {f"{name}.out": buf.getvalue()}
    if argv[0] == "build":
        outputs[f"{name}.dump.json"] = Path(paths["out"]).read_text()
    return outputs


def _run_script(script: str, args: list) -> subprocess.CompletedProcess:
    src = Path(checkerboard.__file__).resolve().parent.parent
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(src)})


def run_script(name: str) -> str:
    proc = _run_script(*SCRIPT_CASES[name])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def write_golden(tmp: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in CLI_CASES:
        for fname, text in run_cli_case(name, tmp).items():
            (GOLDEN / fname).write_text(text)
    for name in SCRIPT_CASES:
        (GOLDEN / f"{name}.out").write_text(run_script(name))


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_is_byte_identical(name, tmp_path):
    for fname, text in run_cli_case(name, tmp_path).items():
        assert text == (GOLDEN / fname).read_text(), fname


def test_scan_pd_gamma_script_is_byte_identical():
    assert run_script("scan_pd_gamma") == (GOLDEN / "scan_pd_gamma.out").read_text()


def test_rank_survey_script_is_byte_identical():
    assert run_script("rank_survey") == (GOLDEN / "rank_survey.out").read_text()


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("name", sorted(SCRIPT_CASES))
def test_script_rejects_a_sample_count_below_1(name, samples):
    proc = _run_script(SCRIPT_CASES[name][0], ["--samples", samples])
    assert proc.returncode == 2 and not proc.stdout
    assert "samples must be >= 1" in proc.stderr and "Traceback" not in proc.stderr
