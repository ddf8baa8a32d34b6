"""The sampler's seed contract and its tables.

Sample i of ``--seed s`` comes from ``sampling.rng_for(s, i)`` through
``getrandbits`` rejection draws.  The ``random`` module guarantees only
``random()``'s sequence across Python versions, so these tests pin the
stream: each sampler returns what the ``randint`` samplers in
tests/reference.py return, and leaves the generator in the same state.
"""

import contextlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import checkerboard
import reference
from checkerboard import sampling
from checkerboard.cli import main
from checkerboard.errors import SingularParameterError
from checkerboard.gaussian import GaussRat, gauss_over
from checkerboard.subfamily import derive_full_params
from test_golden import CLI_CASES, GOLDEN, run_cli_case

SAMPLERS = (
    "random_rational",
    "random_gauss",
    "random_nonzero_gauss",
    "random_checker_params",
    "draw_subfamily_params",
    "random_subfamily_params",
    "random_bruss_peres_params",
)
# rng_for(67, 0) draws two singular subfamily points before a valid one.
SINGULAR_SEED = 67


def _rejected_draws(rng) -> int:
    for n in range(sampling.MAX_TRIES):
        try:
            derive_full_params(reference.draw_subfamily_params(rng))
        except SingularParameterError:
            continue
        return n
    raise AssertionError("no valid draw")


def test_the_singular_seed_rejects_draws():
    assert _rejected_draws(sampling.rng_for(SINGULAR_SEED, 0)) == 2


@pytest.mark.parametrize("name", SAMPLERS)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), idx=st.integers(0, 10**6))
@example(seed=SINGULAR_SEED, idx=0)
def test_samplers_draw_as_the_randint_samplers(name, seed, idx):
    rng, ref_rng = sampling.rng_for(seed, idx), sampling.rng_for(seed, idx)
    value = getattr(sampling, name)(rng)
    expected = getattr(reference, name)(ref_rng)
    assert type(value) is type(expected)
    assert value == expected
    assert rng.getstate() == ref_rng.getstate()


def test_tables_hold_the_reduced_rationals_in_draw_order():
    m, n = sampling.DEFAULT_MAX_NUMERATOR, sampling.DEFAULT_MAX_DENOMINATOR
    parts = [(num, den) for num in range(-m, m + 1) for den in range(1, n + 1)]
    rationals, table = sampling._rational_table(), sampling._gauss_table()
    assert rationals == tuple(Fraction(num, den) for num, den in parts)
    assert len(table) == len(parts) ** 2 == 1296
    for i, (xn, xd) in enumerate(parts):
        for j, (yn, yd) in enumerate(parts):
            z = table[len(parts) * i + j]
            assert type(z) is GaussRat and z.d > 0 and gcd(z.x, z.y, z.d) == 1
            assert z == gauss_over(xn * yd, yn * xd, xd * yd)
            assert (z.re, z.im) == (Fraction(xn, xd), Fraction(yn, yd))


def test_importing_the_cli_builds_no_table():
    src = Path(checkerboard.__file__).resolve().parent.parent
    code = ("from checkerboard import cli, sampling\n"
            "cli.make_parser()\n"
            "print(sampling._rational_table.cache_info().currsize,"
            " sampling._gauss_table.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0\n"


def _forbid_randrange(monkeypatch):
    def randrange(self, *args, **kwargs):
        raise AssertionError("randrange called")

    monkeypatch.setattr(random.Random, "randrange", randrange)


def _scan(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(n for n in CLI_CASES if n.startswith("scan_")))
def test_golden_scans_never_call_randrange(name, tmp_path, monkeypatch):
    _forbid_randrange(monkeypatch)
    for fname, text in run_cli_case(name, tmp_path).items():
        assert text == (GOLDEN / fname).read_text(), fname


@pytest.mark.parametrize("family", ["full", "ppt"])
def test_ten_sample_scan_without_randrange_prints_the_randint_bytes(family, monkeypatch):
    argv = ["scan", "--family", family, "--samples", "10"]
    with monkeypatch.context() as patch:
        patch.setattr(sampling, "random_checker_params", reference.random_checker_params)
        patch.setattr(sampling, "draw_subfamily_params", reference.draw_subfamily_params)
        expected = _scan(argv)
    _forbid_randrange(monkeypatch)
    text = _scan(argv)
    assert text == expected
    golden = (GOLDEN / f"scan_{family}.out").read_text().splitlines(keepends=True)
    # the header and the 8 sample rows of the golden 8-sample scan
    assert text.splitlines(keepends=True)[:9] == golden[:9]
