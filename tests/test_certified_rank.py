"""Certified Jacobian ranks: the closed form, the proofs mod P and the exact fallback.

The reference is the jet-based construction in ``jet_reference``.  Every
certified rank must equal the exact rank it computes, and every point
where the modular rank is not a proof must reach the exact ``rank``.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
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
    echelon_mod_p,
    kernel_vector_mod_p,
    rational_reconstruction,
    residue,
)
from checkerboard.subfamily import derive_full_params
from conftest import (
    big_fractions,
    big_gauss,
    checker_points,
    single_nonzero_points,
    small_fractions,
    small_gauss,
    sparse_gauss,
    subfamily_points,
)
from jet_reference import lambda_rank, psi_coordinate_jets, psi_rank

PSI_STRATEGIES = {
    "default": checker_points(small_gauss),
    "sparse": checker_points(sparse_gauss),
    "20-digit": checker_points(big_gauss),
    "single-nonzero": single_nonzero_points,
}


LAMBDA_STRATEGIES = {
    "default": subfamily_points(small_fractions, small_gauss),
    "sparse": subfamily_points(st.just(Fraction(0)) | small_fractions, sparse_gauss),
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

@pytest.mark.parametrize("strategy", ["default", "sparse"])
def test_lambda_certified_rank_equals_exact_rank(strategy):
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(LAMBDA_STRATEGIES[strategy])
    def check(sp):
        _assume_completes(sp)
        assert jacobian_rank_lambda(sp) == lambda_rank(sp)

    check()


def test_lambda_modular_rank_never_claims_a_wrong_rank_at_20_digits():
    # The kernel vector at 20 digits is far too large for one prime, so the
    # reconstruction fails and the exact path is taken; should the modular
    # path ever answer, the answer must be the exact rank.
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(LAMBDA_STRATEGIES["20-digit"])
    def check(sp):
        _assume_completes(sp)
        certified = counting._certified_rank_lambda(sp)
        if certified is not None:
            assert certified == lambda_rank(sp)

    check()


def test_lambda_rank_is_certified_at_sampled_points(exact_rank_calls):
    for idx in range(10):
        sp, _ = sampling.random_subfamily_params(sampling.rng_for(66, idx))
        assert jacobian_rank_lambda(sp) == 12
    assert exact_rank_calls == []


@pytest.mark.parametrize("change", [
    {"c": GaussRat(Fraction(2, P), 1)},  # P divides a denominator
    {"t": Fraction(P)},  # rank 12 mod P, but the lifted kernel vector is not one
    {"a": GaussRat(0, -P)},  # a = 0 mod P: the completion is singular mod P
])
def test_lambda_rank_falls_back_when_the_modular_rank_is_no_proof(change, exact_rank_calls):
    sp = replace(presets.SUBFAMILY_RANK_POINT, **change)
    assert jacobian_rank_lambda(sp) == lambda_rank(sp) == 12
    assert exact_rank_calls == [(41, 13)]


def test_lambda_rank_falls_back_when_the_modular_rank_is_low(monkeypatch, exact_rank_calls):
    # No point has turned up where the rank mod P is below 12, so one is simulated.
    def low(rows):
        echelon, pivots = echelon_mod_p(rows)
        return echelon[:-2], pivots[:-2]

    monkeypatch.setattr(counting, "echelon_mod_p", low)
    assert jacobian_rank_lambda(presets.SUBFAMILY_RANK_POINT) == 12
    assert exact_rank_calls == [(41, 13)]


def test_lambda_rank_at_singular_point_still_raises():
    with pytest.raises(SingularParameterError):
        jacobian_rank_lambda(replace(presets.SUBFAMILY_RANK_POINT, a=GaussRat(0)))


# -- the modular helpers ---------------------------------------------------

def test_p_is_a_prime_with_no_square_root_of_minus_one():
    assert P == 2**61 - 1 and P % 4 == 3
    assert pow(3, P - 1, P) == 1 and pow(P - 1, (P - 1) // 2, P) == P - 1


def test_residue_and_rational_reconstruction_round_trip():
    for value in (Fraction(0), Fraction(-7, 3), Fraction(12036, 7081), Fraction(2**30 - 1, 2**29)):
        assert rational_reconstruction(residue(value)) == value
    assert residue(Fraction(P + 5)) == 5
    # 2^61 = 1 mod P, so a larger fraction can come back as a small one with
    # its residue: why every lifted kernel vector is checked exactly
    assert rational_reconstruction(residue(Fraction(2**40, 3))) == Fraction(1, 3 * 2**21)
    assert rational_reconstruction(123456789012345678) is None


def test_echelon_and_kernel_mod_p():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    echelon, pivots = echelon_mod_p(rows)
    assert pivots == [0, 1]
    v = kernel_vector_mod_p(echelon, pivots, 2, 3)
    assert v[2] == 1
    assert all(sum(a * b for a, b in zip(row, v)) % P == 0 for row in rows)
    assert [rational_reconstruction(x) for x in v] == [-1, -1, 1]
