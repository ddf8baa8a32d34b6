from fractions import Fraction

import pytest
from hypothesis import given, settings

from checkerboard import presets, sampling
from checkerboard.charpoly import Inertia
from checkerboard.criteria import (
    RangeCertificate,
    WitnessVector,
    is_ppt,
    partial_transpose,
    partial_transpose_matrix,
    range_product_vector_certificate,
    reduced_states,
    reduction_criterion,
    schmidt_rank,
    search_product_vector_numeric,
    witness_expectation,
)
from checkerboard.errors import DegenerateStateError
from checkerboard.family import CheckerParams, StateMatrix, build_state
from checkerboard.gaussian import GaussRat
from checkerboard.matrices import GMat, integer_lift, kron

from conftest import gauss_matrix, hermitian_matrix


def _state_from(m: GMat) -> StateMatrix:
    return StateMatrix(*integer_lift(m))


@settings(max_examples=30, deadline=None)
@given(gauss_matrix(9, 9))
def test_partial_transpose_involution_and_diagonal(rows):
    m = GMat.from_rows(rows)
    g = partial_transpose_matrix(m)
    assert partial_transpose_matrix(g) == m
    assert g.trace() == m.trace()
    for d in range(9):
        assert g[d, d] == m[d, d]


@settings(max_examples=20, deadline=None)
@given(hermitian_matrix(9))
def test_partial_transpose_preserves_hermiticity(m):
    assert partial_transpose_matrix(m).is_hermitian()


@settings(max_examples=15, deadline=None)
@given(gauss_matrix(3, 3), gauss_matrix(3, 3))
def test_partial_transpose_of_product(ra, rb):
    a, b = GMat.from_rows(ra), GMat.from_rows(rb)
    assert partial_transpose_matrix(kron(a, b)) == kron(a, b.transpose())


def test_partial_transpose_of_state_is_normalized():
    state = build_state(presets.REDUCTION_VIOLATING_PARAMS)
    g = partial_transpose(state)
    assert g.trace() == GaussRat(1)


def test_reduced_states_of_transposed_state():
    state = build_state(presets.ONE_DISTILLABLE_PARAMS)
    ra, rb = reduced_states(state)
    gstate = _state_from(partial_transpose_matrix(state.unnormalized))
    ga, gb = reduced_states(gstate)
    assert ga == ra
    assert gb == rb.transpose()


def test_is_ppt_on_examples():
    ppt1, inert1 = is_ppt(build_state(presets.REDUCTION_VIOLATING_PARAMS))
    assert (ppt1, inert1) == (False, Inertia(2, 0, 7))
    ppt2, inert2 = is_ppt(build_state(presets.ONE_DISTILLABLE_PARAMS))
    assert (ppt2, inert2) == (False, Inertia(2, 0, 7))


def test_is_ppt_on_fixed_point_states():
    for idx in range(5):
        _, full = sampling.random_subfamily_params(sampling.rng_for(51, idx))
        state = build_state(full)
        ppt, inert = is_ppt(state)
        assert ppt and inert.n_neg == 0


def test_reduced_states_maximally_mixed():
    ninth = GaussRat(Fraction(1, 1))
    m = GMat.from_rows([[ninth if r == c else GaussRat(0) for c in range(9)] for r in range(9)])
    state = _state_from(m)
    ra, rb = reduced_states(state)
    third = GaussRat(Fraction(1, 3))
    expected = GMat.from_rows([[third if r == c else GaussRat(0) for c in range(3)] for r in range(3)])
    assert ra == expected and rb == expected


def test_reduced_states_pure_product():
    state = build_state(CheckerParams(a=GaussRat(1)))
    ra, rb = reduced_states(state)
    e00 = GMat.from_rows([[1 if r == c == 0 else 0 for c in range(3)] for r in range(3)])
    assert ra == e00 and rb == e00


def test_reduced_states_direct_summation_oracle():
    state = build_state(presets.ONE_DISTILLABLE_PARAMS)
    ra, rb = reduced_states(state)
    assert ra.trace() == GaussRat(1)
    assert rb.trace() == GaussRat(1)
    m = state.normalized()
    for i in range(3):
        for i2 in range(3):
            total = GaussRat(0)
            for j in range(3):
                total = total + m[3 * i + j, 3 * i2 + j]
            assert ra[i, i2] == total
    for j in range(3):
        for j2 in range(3):
            total = GaussRat(0)
            for i in range(3):
                total = total + m[3 * i + j, 3 * i + j2]
            assert rb[j, j2] == total


def test_reduction_criterion_examples():
    assert reduction_criterion(build_state(presets.REDUCTION_VIOLATING_PARAMS)) is True
    assert reduction_criterion(build_state(presets.ONE_DISTILLABLE_PARAMS)) is False


def test_reduction_criterion_maximally_mixed():
    m = GMat.identity(9)
    assert reduction_criterion(_state_from(m)) is False


def test_schmidt_rank_cases():
    e1e1 = WitnessVector.from_pairs([(
        [GaussRat(1), GaussRat(0), GaussRat(0)],
        [GaussRat(1), GaussRat(0), GaussRat(0)],
    )])
    assert schmidt_rank(e1e1) == 1
    assert schmidt_rank(presets.ONE_DISTILLABLE_WITNESS) == 2
    u = [GaussRat(1), GaussRat(2), GaussRat(0)]
    v = [GaussRat(0), GaussRat(1), GaussRat(1)]
    parallel = WitnessVector.from_pairs([(u, v), ([2 * x for x in u], v)])
    assert schmidt_rank(parallel) == 1
    with pytest.raises(DegenerateStateError):
        schmidt_rank(WitnessVector.from_components([GaussRat(0)] * 9))


def test_witness_expectation_golden():
    state = build_state(presets.ONE_DISTILLABLE_PARAMS)
    value = witness_expectation(state, presets.ONE_DISTILLABLE_WITNESS)
    assert value == GaussRat(Fraction(-5, 21))


def test_witness_expectation_zero_vector():
    state = build_state(presets.ONE_DISTILLABLE_PARAMS)
    zero = WitnessVector.from_components([GaussRat(0)] * 9)
    assert witness_expectation(state, zero) == GaussRat(0)


def test_witness_expectation_nonnegative_on_fixed_points():
    _, full = sampling.random_subfamily_params(sampling.rng_for(52, 0))
    state = build_state(full)
    for idx in range(10):
        rng = sampling.rng_for(53, idx)
        w = WitnessVector.from_components(
            [sampling.random_gauss(rng) for _ in range(9)]
        )
        value = witness_expectation(state, w)
        assert value.im == 0
        assert value.re >= 0


def test_witness_expectation_is_real_on_examples():
    state = build_state(presets.REDUCTION_VIOLATING_PARAMS)
    for idx in range(10):
        rng = sampling.rng_for(54, idx)
        w = WitnessVector.from_components(
            [sampling.random_gauss(rng) for _ in range(9)]
        )
        assert witness_expectation(state, w).im == 0


def test_range_certificate():
    assert (
        range_product_vector_certificate(presets.ONE_DISTILLABLE_PARAMS)
        is RangeCertificate.NO_PRODUCT_VECTOR
    )
    only_a = CheckerParams(a=GaussRat(2, 1))
    assert range_product_vector_certificate(only_a) is RangeCertificate.UNDECIDED
    assert range_product_vector_certificate(CheckerParams()) is RangeCertificate.UNDECIDED


def test_numeric_search_finds_basis_product_vector():
    p = CheckerParams(a=GaussRat(1))
    hit = search_product_vector_numeric(p, attempts=20, tolerance=1e-8, seed=7)
    assert hit is not None
    assert hit.residual < 1e-10
    amp = abs(complex(hit.factor_a[0]) * complex(hit.factor_b[0]))
    assert amp == pytest.approx(1.0, abs=1e-6)


def test_numeric_search_finds_nothing_on_examples():
    for p in (presets.REDUCTION_VIOLATING_PARAMS, presets.ONE_DISTILLABLE_PARAMS):
        assert search_product_vector_numeric(p, attempts=200, tolerance=1e-8, seed=11) is None


def test_numeric_search_deterministic():
    p = CheckerParams(c=GaussRat(1, 2))
    first = search_product_vector_numeric(p, attempts=10, tolerance=1e-8, seed=3)
    second = search_product_vector_numeric(p, attempts=10, tolerance=1e-8, seed=3)
    assert first is not None and second is not None
    assert first.factor_a == second.factor_a
    assert first.factor_b == second.factor_b
    assert first.residual == second.residual


def test_numeric_search_rejects_bad_attempts():
    from checkerboard.errors import CheckerboardError
    with pytest.raises(CheckerboardError):
        search_product_vector_numeric(CheckerParams(a=GaussRat(1)), attempts=0)


def test_numeric_search_consistent_with_certificate_on_100_samples():
    """Certified-generic random states never yield a numeric product vector.

    More attempts can only help the search find something, so a reduced
    attempt count keeps this sweep fast without weakening the assertion.
    """
    from checkerboard.family import theorem1_generic

    for idx in range(100):
        rng = sampling.rng_for(55, idx)
        while True:
            p = sampling.random_checker_params(rng)
            if theorem1_generic(p):
                break
        hit = search_product_vector_numeric(p, attempts=40, tolerance=1e-8, seed=idx)
        assert hit is None


def test_fixed_point_states_satisfy_all_criteria_on_100_samples():
    """Generic fixed-point states: PPT, reduction satisfied, range certificate firm."""
    from checkerboard.subfamily import theorem2_generic

    checked = 0
    idx = 0
    while checked < 100:
        sp, full = sampling.random_subfamily_params(sampling.rng_for(56, idx))
        idx += 1
        if not theorem2_generic(sp):
            continue
        state = build_state(full)
        ppt, inert = is_ppt(state)
        assert ppt and inert.n_neg == 0
        assert reduction_criterion(state) is False
        assert (
            range_product_vector_certificate(full)
            is RangeCertificate.NO_PRODUCT_VECTOR
        )
        checked += 1
