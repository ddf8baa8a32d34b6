import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import checkerboard
from checkerboard import presets, reproduce
from checkerboard.cli import main
from checkerboard.criteria import WitnessVector
from checkerboard.family import build_state
from checkerboard.gaussian import GaussRat
from checkerboard.io import (
    checker_params_to_doc,
    bruss_peres_params_to_doc,
    parse_matrix_obj,
    parse_param_doc,
    parse_witness_doc,
    subfamily_params_to_doc,
    witness_to_doc,
)
from checkerboard.report import build_certificate
from checkerboard.subfamily import BrussPeresParams, derive_full_params
from conftest import (
    checker_points,
    digit_fractions,
    small_fractions,
    small_gauss,
    sparse_gauss,
    subfamily_points,
)

_gauss5 = st.builds(GaussRat, digit_fractions(5), digit_fractions(5))
ROUND_TRIP_DOCS = st.one_of(
    st.one_of(checker_points(small_gauss), checker_points(sparse_gauss),
              checker_points(_gauss5)).map(checker_params_to_doc),
    st.one_of(subfamily_points(small_fractions, small_gauss),
              subfamily_points(digit_fractions(5), _gauss5, _gauss5)).map(subfamily_params_to_doc),
)
ROUND_TRIP_WITNESSES = st.lists(small_gauss, min_size=9, max_size=9).filter(any).map(
    lambda comps: witness_to_doc(WitnessVector.from_components(comps)))


@pytest.fixture
def full_file(tmp_path):
    path = tmp_path / "full.json"
    path.write_text(json.dumps(checker_params_to_doc(presets.ONE_DISTILLABLE_PARAMS)))
    return str(path)


@pytest.fixture
def first_file(tmp_path):
    path = tmp_path / "first.json"
    path.write_text(json.dumps(checker_params_to_doc(presets.REDUCTION_VIOLATING_PARAMS)))
    return str(path)


@pytest.fixture
def ppt_file(tmp_path):
    path = tmp_path / "ppt.json"
    path.write_text(json.dumps(subfamily_params_to_doc(presets.SUBFAMILY_RANK_POINT)))
    return str(path)


@pytest.fixture
def witness_file(tmp_path):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness_to_doc(presets.ONE_DISTILLABLE_WITNESS)))
    return str(path)


def test_build_matrix_dump(tmp_path, first_file, capsys):
    out = tmp_path / "out.json"
    code = main(["build", "--input", first_file, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    matrix = parse_matrix_obj(doc["matrix"])
    expected = presets.REDUCTION_VIOLATING_MATRIX.scale(
        GaussRat(Fraction(1, 17))
    )
    assert matrix == expected
    assert doc["normalizer"] == "17"
    cert = json.loads(capsys.readouterr().out)
    assert cert["reduction_violated"] is True
    assert cert["ppt"]["is_ppt"] is False
    assert cert["ppt"]["inertia"] == {"neg": 2, "zero": 0, "pos": 7}


def test_build_round_trip_certificate(tmp_path, full_file, capsys):
    out = tmp_path / "out.json"
    assert main(["build", "--input", full_file, "--out", str(out)]) == 0
    first = json.loads(capsys.readouterr().out)
    doc = json.loads(out.read_text())
    assert doc["certificate"] == first
    # re-parse the embedded params and re-certify: identical certificate
    reparsed = tmp_path / "reparsed.json"
    reparsed.write_text(json.dumps(doc["params"]))
    assert main(["certify", "--input", str(reparsed)]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second == first


def test_build_with_witness(tmp_path, full_file, witness_file, capsys):
    out = tmp_path / "out.json"
    assert main(["build", "--input", full_file, "--out", str(out),
                 "--witness", witness_file]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["witness"]["value"] == "-5/21"
    doc = json.loads(out.read_text())
    assert doc["certificate"]["witness"]["value"] == "-5/21"


def test_build_ppt_point_gamma_fixed(tmp_path, ppt_file, capsys):
    out = tmp_path / "out.json"
    assert main(["build", "--input", ppt_file, "--out", str(out)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["gamma_fixed"] is True
    assert cert["ppt"]["is_ppt"] is True
    assert cert["theorem2"]["generic"] is True


def test_parse_error_exit_code(tmp_path, capsys):
    doc = checker_params_to_doc(presets.ONE_DISTILLABLE_PARAMS)
    doc["params"]["a"] = {"re": "1/0", "im": "0"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["build", "--input", str(bad), "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "build"])
def test_oversized_fraction_is_parse_error(tmp_path, command):
    """A numerator past int()'s digit limit exits 2 with a one-line error."""
    doc = checker_params_to_doc(presets.ONE_DISTILLABLE_PARAMS)
    doc["params"]["a"] = {"re": "7" * 5000, "im": "0"}
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    argv = [command, "--input", str(bad)]
    if command == "build":
        argv += ["--out", str(tmp_path / "out.json")]
    src = Path(checkerboard.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "checkerboard.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: fraction string too long")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", ["1/2\n", "\u0663/\u0664"])
def test_loose_fraction_string_is_parse_error(tmp_path, text):
    """A trailing newline or non-ASCII digits exit 2 from certify, as any bad fraction."""
    doc = checker_params_to_doc(presets.ONE_DISTILLABLE_PARAMS)
    doc["params"]["a"] = {"re": text, "im": "0"}
    bad = tmp_path / "loose.json"
    bad.write_text(json.dumps(doc))
    src = Path(checkerboard.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "checkerboard.cli", "certify", "--input", str(bad)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: bad fraction string")
    assert proc.stdout == ""


def test_certify_hundred_digit_parameters(tmp_path):
    """A normalizer past int->str's digit limit is printed, not a traceback."""
    import random
    from checkerboard.family import PARAM_LETTERS
    rng = random.Random(100)

    def frac():
        return f"{rng.randrange(-10 ** 100, 10 ** 100)}/{rng.randrange(10 ** 99, 10 ** 100)}"

    doc = {"family": "full",
           "params": {ch: {"re": frac(), "im": frac()} for ch in PARAM_LETTERS}}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    src = Path(checkerboard.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "checkerboard.cli", "certify",
                           "--input", str(path)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(json.loads(proc.stdout)["normalizer"]) > 4300


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def crash(**kwargs):
        raise RuntimeError("boom")

    # The cached parser holds cmd_reproduce itself, so the crash goes one call deeper.
    monkeypatch.setattr(reproduce, "run_all", crash)
    assert main(["reproduce"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: boom" in err


def _in_process(argv) -> tuple:
    """(exit code, stdout, stderr) of one ``main`` call in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a bad argument this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_repeated_commands_in_one_process_match_fresh_runs(tmp_path, full_file, ppt_file):
    """One process, one cached parser: each command prints and exits as in a new process."""
    from checkerboard.cli import make_parser

    commands = [
        ["certify", "--input", full_file],
        ["scan", "--family", "ppt", "--samples", "3", "--seed", "4"],
        ["scan", "--family", "bogus", "--samples", "3"],
        ["jacobian", "--input", ppt_file],
        ["certify", "--input", str(tmp_path / "nope.json")],
        ["scan", "--family", "full", "--samples", "2"],
    ]
    in_process = [_in_process(argv) for argv in commands]
    assert make_parser() is make_parser()
    src = Path(checkerboard.__file__).resolve().parent.parent
    for argv, (code, out, err) in zip(commands, in_process):
        proc = subprocess.run([sys.executable, "-m", "checkerboard.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 2, 0]


def test_missing_file_is_parse_error(tmp_path):
    assert main(["certify", "--input", str(tmp_path / "nope.json")]) == 2


def test_singular_exit_code(tmp_path, ppt_file):
    doc = json.loads(open(ppt_file).read())
    doc["params"]["a"] = {"re": "0", "im": "0"}
    bad = tmp_path / "singular.json"
    bad.write_text(json.dumps(doc))
    assert main(["certify", "--input", str(bad)]) == 3


def test_certify_with_witness(full_file, witness_file, capsys):
    assert main(["certify", "--input", full_file, "--witness", witness_file]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["witness"]["value"] == "-5/21"
    assert cert["witness"]["schmidt_rank"] == 2
    assert cert["witness"]["one_distillable"] is True
    assert cert["distillable"] is True
    assert cert["reduction_violated"] is False


def test_certify_first_example(first_file, capsys):
    assert main(["certify", "--input", first_file]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["reduction_violated"] is True
    assert cert["distillable"] is True
    assert cert["certified_entangled"] is True
    assert cert["range_certificate"] == "no_product_vector"


def test_certify_ppt_sample(tmp_path, capsys):
    from checkerboard import sampling
    sp, _ = sampling.random_subfamily_params(sampling.rng_for(71, 0))
    path = tmp_path / "sample.json"
    path.write_text(json.dumps(subfamily_params_to_doc(sp)))
    assert main(["certify", "--input", str(path)]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["ppt"]["is_ppt"] is True
    assert cert["gamma_fixed"] is True
    if cert["theorem2"]["generic"]:
        assert cert["certified_entangled"] is True


def test_jacobian_command(full_file, ppt_file, capsys):
    assert main(["jacobian", "--input", full_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["rank"] == 28
    assert rep["param_count"] == 36
    assert rep["coordinate_count"] == 28
    assert rep["normalized_family_lower_bound"] == 27
    assert main(["jacobian", "--input", ppt_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["rank"] == 12
    assert rep["param_count"] == 23
    assert rep["coordinate_count"] == 41
    assert rep["normalized_family_lower_bound"] == 11


def test_embed_bp_command(tmp_path, capsys):
    bp = BrussPeresParams(
        t=Fraction(1), x=Fraction(2),
        a=GaussRat(1), b=GaussRat(1), c=GaussRat(1), f=GaussRat(1),
    )
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(bruss_peres_params_to_doc(bp)))
    assert main(["embed-bp", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    kind, sp = parse_param_doc(doc)
    assert kind == "ppt"
    full = derive_full_params(sp)
    for ch in "deinr":
        assert getattr(full, ch) == GaussRat(0)
    from checkerboard.criteria import partial_transpose_matrix
    state = build_state(full)
    assert partial_transpose_matrix(state.unnormalized) == state.unnormalized


def test_embed_bp_real_flag(tmp_path):
    bp = BrussPeresParams(
        t=Fraction(1), x=Fraction(2),
        a=GaussRat(1, 1), b=GaussRat(1), c=GaussRat(1), f=GaussRat(1),
    )
    path = tmp_path / "bp.json"
    path.write_text(json.dumps(bruss_peres_params_to_doc(bp)))
    assert main(["embed-bp", "--input", str(path)]) == 0
    # the real-only flag rejects the complex value of a
    code = main(["embed-bp", "--input", str(path), "--real"])
    assert code != 0


def test_scan_ppt_family(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--family", "ppt", "--samples", "6", "--seed", "5",
                 "--target", "ppt", "--out", str(out)]) == 0
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("sample_index,seed_offset,generic_t1,generic_t2,ppt,")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(body) == 6
    valid = 0
    for ln in body:
        fields = ln.split(",")
        if "singular" not in ln:
            valid += 1
            assert fields[4] == "True"  # every valid sample is PPT
    assert lines[-1].startswith("# summary:")
    assert f"valid={valid}" in lines[-1]
    assert f"gamma_fixed={valid}" in lines[-1]  # all valid samples are fixed points
    # deterministic: same invocation, byte-identical output
    out2 = tmp_path / "scan2.csv"
    assert main(["scan", "--family", "ppt", "--samples", "6", "--seed", "5",
                 "--target", "ppt", "--out", str(out2)]) == 0
    assert out2.read_text() == text


def test_scan_full_family_pd_gamma(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--family", "full", "--samples", "5", "--seed", "2",
                 "--target", "pd-gamma", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert "pd_gamma=" in lines[-1]


def test_scan_max_rank(tmp_path):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--family", "ppt", "--samples", "3", "--seed", "9",
                 "--target", "max-rank", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert "max_jacobian_rank=12" in lines[-1]


def test_reproduce_command(capsys):
    """The reproduce command re-derives every golden value and all 13 items pass."""
    code = main(["reproduce"])
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("ITEM")]
    assert len(lines) == 13
    passes = [ln for ln in lines if " PASS " in ln]
    assert len(passes) == 13
    assert out.strip().endswith("ALL PASS")
    assert code == 0


def test_reproduce_tampered_golden_fails(monkeypatch):
    monkeypatch.setitem(reproduce.GOLDEN, "first_pt_det", Fraction(1, 2))
    res = reproduce.item03()
    assert not res.ok
    assert "det=" in res.expected and "det=" in res.computed
    assert res.expected != res.computed


def test_reproduce_item_output_is_deterministic():
    first = reproduce.item07()
    second = reproduce.item07()
    assert first == second


@settings(max_examples=40, deadline=None)
@given(doc=ROUND_TRIP_DOCS, witness_doc=ROUND_TRIP_WITNESSES)
def test_parse_certify_dump_parse_certify_round_trip(doc, witness_doc):
    """``build`` parses and certifies a file and dumps it; certifying the dump again
    gives the identical certificate, and the dumped parameters write back to the same file."""
    with tempfile.TemporaryDirectory() as tmp:
        params, witness, dump = (Path(tmp) / name for name in ("p.json", "w.json", "dump.json"))
        params.write_text(json.dumps(doc))
        witness.write_text(json.dumps(witness_doc))
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["build", "--input", str(params), "--witness", str(witness),
                         "--out", str(dump)])
        if code == 3:  # a singular ppt completion
            return
        assert code == 0
        printed = out.getvalue()
        dumped = json.loads(dump.read_text())
    assert dumped["certificate"] == json.loads(printed)
    kind, parsed = parse_param_doc(dumped["params"])
    to_doc = checker_params_to_doc if kind == "full" else subfamily_params_to_doc
    assert to_doc(parsed) == doc
    again = build_certificate(kind, parsed, witness=parse_witness_doc(witness_doc))
    assert json.dumps(again, indent=2, sort_keys=True) + "\n" == printed
