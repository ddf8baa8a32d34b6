"""Certified Jacobian ranks: the closed form, the proofs mod p and the exact fallback.

The reference is the jet-based construction in ``jet_reference``.  Every
certified rank must equal the exact rank it computes, the chain-rule rows
mod P must equal its ModJet rows, and a point reaches the exact ``rank``
only when no prime of the budget gives a proof.
"""

import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import checkerboard.counting as counting
from checkerboard import presets, sampling
from checkerboard.counting import (
    jacobian_rank_lambda,
    jacobian_rank_psi,
    psi_jacobian,
)
from checkerboard.errors import SingularParameterError
from checkerboard.family import CheckerParams
from checkerboard.gaussian import GaussRat
from checkerboard.matrices import (
    P,
    complex_echelon_mod_p,
    complex_kernel_vector_mod_p,
    echelon_mod_p,
    is_prime,
    primes,
    rational_reconstruction,
    residue,
    vector_reconstruction,
)
from checkerboard.subfamily import SubfamilyParams, derive_full_params
from conftest import (
    big_fractions,
    big_gauss,
    checker_points,
    digit_fractions,
    nonzero_gauss,
    single_nonzero_points,
    small_fractions,
    small_gauss,
    sparse_gauss,
    subfamily_points,
)
from jet_reference import lambda_rank, lambda_rows_mod_p, psi_coordinate_jets, psi_rank

PSI_STRATEGIES = {
    "default": checker_points(small_gauss),
    "sparse": checker_points(sparse_gauss),
    "20-digit": checker_points(big_gauss),
    "single-nonzero": single_nonzero_points,
}


def _one_more_nonzero(pick):
    """a, b, f, k and s nonzero, the fewest the completion needs, and one more parameter."""
    (a, b, f, k, s), (name, value) = pick
    fields = dict(t=Fraction(0), x=Fraction(0), y=Fraction(0), a=a, b=b, c=GaussRat(0), f=f,
                  j=GaussRat(0), k=k, l=GaussRat(0), m=GaussRat(0), p=GaussRat(0), s=s)
    fields[name] = (value.re or value.im) if name in "txy" else value
    return SubfamilyParams(**fields)


_gauss5 = st.builds(GaussRat, digit_fractions(5), digit_fractions(5))
LAMBDA_STRATEGIES = {
    "default": subfamily_points(small_fractions, small_gauss),
    "sparse": subfamily_points(st.just(Fraction(0)) | small_fractions, sparse_gauss),
    "5-digit": subfamily_points(digit_fractions(5), _gauss5, _gauss5),
    "single-nonzero": st.tuples(st.tuples(*[nonzero_gauss] * 5),
                                st.tuples(st.sampled_from("txycjlmp"), nonzero_gauss)
                                ).map(_one_more_nonzero),
    "20-digit": subfamily_points(big_fractions, big_gauss, big_gauss),
}


def _assume_completes(sp):
    try:
        derive_full_params(sp)
    except SingularParameterError:
        assume(False)


@pytest.fixture
def exact_rank_calls(monkeypatch):
    """Counts the calls of the exact fallback ``rank`` made by ``counting``."""
    calls = []
    original = counting.rank

    def spy(m):
        calls.append(m.shape())
        return original(m)

    monkeypatch.setattr(counting, "rank", spy)
    return calls


@pytest.fixture
def kernel_checks(monkeypatch):
    """The outcome of every exact kernel check J v = 0 made by ``counting``."""
    outcomes = []
    original = counting._lambda_kernel_vanishes

    def spy(values, v):
        outcomes.append(original(values, v))
        return outcomes[-1]

    monkeypatch.setattr(counting, "_lambda_kernel_vanishes", spy)
    return outcomes


def _walked_primes(monkeypatch):
    """The primes for which ``counting`` builds the Jacobian mod p."""
    walked = []
    original = counting._lambda_rows_mod

    def spy(residues, p):
        walked.append(p)
        return original(residues, p)

    monkeypatch.setattr(counting, "_lambda_rows_mod", spy)
    return walked


# -- the closed-form psi Jacobian ------------------------------------------

@pytest.mark.parametrize("strategy", sorted(PSI_STRATEGIES))
def test_psi_closed_form_rows_and_certified_rank(strategy):
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(PSI_STRATEGIES[strategy])
    def check(p):
        jets = psi_coordinate_jets(p)
        rows = psi_jacobian({ch: (z.re, z.im) for ch, z in p.as_dict().items()})
        assert rows == [[g.re for g in jet.grad] for jet in jets]
        assert not any(g.im for jet in jets for g in jet.grad)
        assert jacobian_rank_psi(p) == psi_rank(p)

    check()


def test_psi_rank_is_certified_at_sampled_points(exact_rank_calls):
    for idx in range(10):
        assert jacobian_rank_psi(sampling.random_checker_params(sampling.rng_for(65, idx))) == 28
    assert exact_rank_calls == []


def test_psi_rank_at_zero_point_falls_back(exact_rank_calls):
    assert jacobian_rank_psi(CheckerParams()) == 0
    assert exact_rank_calls == [(28, 36)]


def test_psi_rank_with_denominator_p_falls_back(exact_rank_calls):
    p = replace(presets.ONE_DISTILLABLE_PARAMS, c=GaussRat(Fraction(3, P), 1))
    with pytest.raises(ZeroDivisionError):
        residue(p.c.re)
    assert jacobian_rank_psi(p) == psi_rank(p) == 28
    assert exact_rank_calls == [(28, 36)]


def test_psi_rank_with_multiples_of_p_falls_back(exact_rank_calls):
    # every residue is 0, so the rank mod P is 0; the exact rank is unchanged by the scale
    scaled = CheckerParams.from_dict(
        {ch: z * P for ch, z in presets.ONE_DISTILLABLE_PARAMS.as_dict().items()})
    rows = psi_jacobian({ch: (residue(z.re), residue(z.im)) for ch, z in scaled.as_dict().items()})
    assert echelon_mod_p(rows)[1] == []
    assert jacobian_rank_psi(scaled) == 28
    assert exact_rank_calls == [(28, 36)]


# -- the subfamily Jacobian ------------------------------------------------

@pytest.mark.parametrize("strategy", ["default", "sparse", "5-digit", "single-nonzero"])
def test_lambda_certified_rank_equals_exact_rank(strategy):
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(LAMBDA_STRATEGIES[strategy])
    def check(sp):
        _assume_completes(sp)
        assert jacobian_rank_lambda(sp) == lambda_rank(sp)

    check()


@pytest.mark.parametrize("strategy", ["default", "sparse", "5-digit"])
def test_lambda_chain_rule_rows_equal_the_modjet_pipeline(strategy):
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(LAMBDA_STRATEGIES[strategy])
    def check(sp):
        _assume_completes(sp)
        residues = counting._residues(counting._lambda_values(sp), P)
        assume(residues is not None)
        assert counting._lambda_rows_mod(residues, P) == lambda_rows_mod_p(sp)

    check()


def test_lambda_modular_rank_never_claims_a_wrong_rank_at_20_digits(exact_rank_calls, kernel_checks):
    # The kernel vector at 20 digits has entries of about 900 bits: it is
    # lifted from some 30 primes, then checked exactly once.
    @settings(max_examples=2, deadline=None, derandomize=True)
    @given(LAMBDA_STRATEGIES["20-digit"])
    def check(sp):
        _assume_completes(sp)
        kernel_checks.clear()
        assert jacobian_rank_lambda(sp) == 12
        assert kernel_checks == [True]

    check()
    assert exact_rank_calls == []


def test_lambda_rank_is_certified_at_sampled_points(exact_rank_calls):
    for idx in range(10):
        sp, _ = sampling.random_subfamily_params(sampling.rng_for(66, idx))
        assert jacobian_rank_lambda(sp) == 12
    assert exact_rank_calls == []


@pytest.mark.parametrize("change", [
    {"c": GaussRat(Fraction(2, P), 1)},  # P divides a denominator
    {"t": Fraction(P)},  # P divides a nonzero parameter
    {"a": GaussRat(0, -P)},  # a = 0 mod P: the completion is singular mod P
])
def test_lambda_rank_falls_back_when_the_modular_rank_is_no_proof(change, exact_rank_calls,
                                                                  monkeypatch):
    # P is skipped and the next prime certifies the rank.
    walked = _walked_primes(monkeypatch)
    sp = replace(presets.SUBFAMILY_RANK_POINT, **change)
    assert jacobian_rank_lambda(sp) == lambda_rank(sp) == 12
    assert exact_rank_calls == []
    assert P not in walked[-1:]


def test_lambda_rank_falls_back_to_exact_elimination_when_the_primes_run_out(
        monkeypatch, exact_rank_calls):
    monkeypatch.setattr(counting, "primes", lambda: iter([P]))
    sp = replace(presets.SUBFAMILY_RANK_POINT, c=GaussRat(Fraction(2, P), 1))
    assert jacobian_rank_lambda(sp) == 12
    assert exact_rank_calls == [(41, 13)]


def test_lambda_rank_falls_back_when_the_modular_rank_is_low(monkeypatch, exact_rank_calls):
    # No point has turned up where the rank mod p is below 12, so one is
    # simulated; two primes that agree on it end the walk.
    walked = _walked_primes(monkeypatch)

    def low(rows, p):
        echelon, pivots = complex_echelon_mod_p(rows, p)
        return echelon[:-1], pivots[:-1]

    monkeypatch.setattr(counting, "complex_echelon_mod_p", low)
    assert jacobian_rank_lambda(presets.SUBFAMILY_RANK_POINT) == 12
    assert exact_rank_calls == [(41, 13)]
    assert len(walked) == 2


def test_a_false_kernel_vector_is_never_trusted(monkeypatch, exact_rank_calls, kernel_checks):
    # Mod P the last column is replaced by the first, so the rank is still
    # 12 but the kernel vector is e_12 - e_0, which lifts cleanly and is
    # not a kernel vector of the true Jacobian.  Only the exact check can
    # tell.  The false residues stay in the lift, but once the modulus is
    # large enough the true vector n/d comes back as nP/(dP), whose
    # residues mod P are 0/0, and passes.
    original = counting._lambda_rows_mod

    def corrupted(residues, p):
        rows = original(residues, p)
        return [row[:-1] + [row[0]] for row in rows] if p == P else rows

    monkeypatch.setattr(counting, "_lambda_rows_mod", corrupted)
    assert jacobian_rank_lambda(presets.SUBFAMILY_RANK_POINT) == 12
    assert kernel_checks == [False, True]
    assert exact_rank_calls == []


def test_lambda_rank_at_singular_point_still_raises(monkeypatch):
    walked = _walked_primes(monkeypatch)
    with pytest.raises(SingularParameterError):
        jacobian_rank_lambda(replace(presets.SUBFAMILY_RANK_POINT, a=GaussRat(0)))
    assert walked == [P]


# -- the modular helpers ---------------------------------------------------

def test_p_is_a_prime_with_no_square_root_of_minus_one():
    assert P == 2**61 - 1 and P % 4 == 3
    assert pow(3, P - 1, P) == 1 and pow(P - 1, (P - 1) // 2, P) == P - 1


def test_prime_source_is_distinct_primes_3_mod_4_below_2_61():
    walked = [p for _, p in zip(range(counting.PRIME_BUDGET + 6), primes())]
    assert walked[0] == P
    assert all(sympy.isprime(p) and p % 4 == 3 and p < 2**61 for p in walked)
    assert walked == sorted(set(walked), reverse=True)
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 31 (only 37
    # exposes it), and two plain composites
    for n in (3215031751, 3825123056546413051, 2**61 - 3, P * 1000003):
        assert not is_prime(n) and not sympy.isprime(n)
    assert all(is_prime(n) == sympy.isprime(n) for n in range(P - 400, P + 1))


def test_importing_the_cli_generates_no_prime():
    src = Path(counting.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import checkerboard.cli, checkerboard.matrices as m; print(m._PRIMES == [m.P])"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "True"


def test_residue_and_rational_reconstruction_round_trip():
    for value in (Fraction(0), Fraction(-7, 3), Fraction(12036, 7081), Fraction(2**30 - 1, 2**29)):
        assert rational_reconstruction(residue(value)) == value
    assert residue(Fraction(P + 5)) == 5
    # 2^61 = 1 mod P, so a larger fraction can come back as a small one with
    # its residue: why every lifted kernel vector is checked exactly
    assert rational_reconstruction(residue(Fraction(2**40, 3))) == Fraction(1, 3 * 2**21)
    assert rational_reconstruction(123456789012345678) is None


def test_vector_reconstruction_through_the_chinese_remainder_theorem():
    vector = [Fraction(3**88, 7**50), Fraction(-(2**139) - 1, 7**50), Fraction(0), Fraction(1)]
    modulus, lifted, lifts = 1, [0] * len(vector), []
    for p in [p for _, p in zip(range(5), primes())]:
        step = pow(modulus, -1, p)
        lifted = [x + modulus * ((residue(v, p) - x) * step % p) for x, v in zip(lifted, vector)]
        modulus *= p
        lifts.append(vector_reconstruction(lifted, modulus))
    # the numerators and the denominator have up to 141 bits, so the lift
    # needs a modulus of 283 bits: five primes, not four
    assert lifts[:4] == [None] * 4 and lifts[4] == vector
    assert vector_reconstruction([123456789012345678, 1], P) is None


def test_echelon_and_kernel_mod_p():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    echelon, pivots = echelon_mod_p(rows)
    assert pivots == [0, 1]
    # the same rows times 1 + 2i, over F_P[i]
    complex_rows = [[(x % P, 2 * x % P) for x in row] for row in rows]
    echelon, pivots = complex_echelon_mod_p(complex_rows, P)
    assert pivots == [0, 1]
    assert all(row[pc] == (1, 0) for row, pc in zip(echelon, pivots))
    v = complex_kernel_vector_mod_p(echelon, pivots, 2, 3, P)
    assert v[2] == (1, 0)
    assert [rational_reconstruction(re) for re, _ in v] == [-1, -1, 1]
    assert all(im == 0 for _, im in v)
