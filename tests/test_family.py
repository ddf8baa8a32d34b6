from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkerboard import presets
from checkerboard.errors import DegenerateStateError, PatternError
from checkerboard.family import (
    PARAM_LETTERS,
    CheckerParams,
    SPLIT_PERMUTATION,
    StateMatrix,
    build_state,
    build_vectors,
    checkerboard_split,
    has_checkerboard_pattern,
    lambda_mu,
    prime_block_null_basis,
    quad_form_F,
    theorem1_generic,
    theorem1_product,
)
from checkerboard.charpoly import inertia
from checkerboard.gaussian import GaussRat, parse_gauss
from checkerboard.matrices import GMat, column_spans_equal, integer_lift, nullspace_basis, rank

from conftest import small_gauss

params_strategy = st.builds(
    CheckerParams.from_dict,
    st.fixed_dictionaries({ch: small_gauss for ch in "abcdefghijklmnpqrs"}),
)


def test_golden_matrix_first_example():
    state = build_state(presets.REDUCTION_VIOLATING_PARAMS)
    assert state.normalizer == Fraction(17)
    assert state.unnormalized == presets.REDUCTION_VIOLATING_MATRIX


def test_golden_matrix_second_example():
    state = build_state(presets.ONE_DISTILLABLE_PARAMS)
    assert state.normalizer == Fraction(21)
    assert state.unnormalized == presets.ONE_DISTILLABLE_MATRIX


def test_vectors_first_example():
    v1, v2, v3, v4 = build_vectors(presets.REDUCTION_VIOLATING_PARAMS)
    expected = tuple(parse_gauss(t) for t in ("0", "0", "-1+i", "0", "-1-i", "0", "-1+i", "0", "1-i"))
    assert v1 == expected


def test_vectors_zero_params():
    vecs = build_vectors(CheckerParams())
    assert all(v == (GaussRat(0),) * 9 for v in vecs)


@settings(max_examples=50, deadline=None)
@given(params_strategy)
def test_vector_orthogonality(p):
    v1, v2, v3, v4 = build_vectors(p)
    def dot(u, v):
        acc = GaussRat(0)
        for x, y in zip(u, v):
            acc = acc + x * y.conj()
        return acc
    assert dot(v1, v2) == GaussRat(0)
    assert dot(v3, v4) == GaussRat(0)
    assert dot(v1, v4) == GaussRat(0)
    assert dot(v3, v2) == GaussRat(0)


def test_single_vector_state():
    p = CheckerParams(a=GaussRat(1))
    state = build_state(p)
    assert state.normalizer == Fraction(1)
    expected = GMat.from_rows(
        [[1 if r == c == 0 else 0 for c in range(9)] for r in range(9)]
    )
    assert state.unnormalized == expected


def test_all_zero_params_rejected():
    with pytest.raises(DegenerateStateError):
        build_state(CheckerParams())


@settings(max_examples=50, deadline=None)
@given(params_strategy)
def test_state_invariants(p):
    try:
        state = build_state(p)
    except DegenerateStateError:
        return
    m = state.unnormalized
    assert m.is_hermitian()
    assert has_checkerboard_pattern(m)
    assert m.trace() == GaussRat(state.normalizer)
    assert rank(m) <= 4


def test_state_positive_semidefinite():
    from checkerboard import sampling

    for p in (presets.REDUCTION_VIOLATING_PARAMS, presets.ONE_DISTILLABLE_PARAMS):
        inert = inertia(build_state(p).unnormalized)
        assert inert.n_neg == 0
        assert inert.n_zero == 5
    for idx in range(10):
        p = sampling.random_checker_params(sampling.rng_for(41, idx))
        state = build_state(p)
        inert = inertia(state.unnormalized)
        assert inert.n_neg == 0
        assert inert.n_zero == 9 - rank(state.unnormalized)


def test_quad_form_first_example():
    form = quad_form_F(presets.REDUCTION_VIOLATING_PARAMS)
    assert form.c20 == GaussRat(0, 2)
    assert form.evaluate(GaussRat(0), GaussRat(0)) == GaussRat(0)


def test_quad_form_zero_params():
    form = quad_form_F(CheckerParams())
    assert form.c20 == form.c11 == form.c02 == GaussRat(0)


def test_lambda_mu():
    assert lambda_mu(CheckerParams()) == (GaussRat(0), GaussRat(0))
    lam, mu = lambda_mu(presets.REDUCTION_VIOLATING_PARAMS)
    assert lam and mu


def test_theorem1_product_is_homogeneous_of_degree_16():
    """t1(D w) = D^16 t1(w), which lets classification compute t1 on lifted integers.

    The 18 letters are the generators of the polynomial ring Z[a, ..., s]
    (sympy's sparse ``ring``), pushed through the program's own
    ``theorem1_product``; every monomial of the result has total degree 16.
    The product uses no conjugate, so the ring needs none.
    """
    sympy = pytest.importorskip("sympy")
    _, *letters = sympy.ring(",".join(PARAM_LETTERS), sympy.ZZ)
    t1 = theorem1_product(CheckerParams(*letters))
    assert t1 != 0
    assert {sum(monomial) for monomial in t1.monoms()} == {16}


def test_theorem1_on_examples():
    assert not theorem1_generic(CheckerParams())
    assert theorem1_generic(presets.REDUCTION_VIOLATING_PARAMS)
    assert theorem1_generic(presets.ONE_DISTILLABLE_PARAMS)
    # frozen exact products, cross-derived independently
    assert theorem1_product(presets.REDUCTION_VIOLATING_PARAMS) == GaussRat(-28, -4)
    assert theorem1_product(presets.ONE_DISTILLABLE_PARAMS) == GaussRat(274, -132)


def test_split_blocks_of_second_example():
    state = build_state(presets.ONE_DISTILLABLE_PARAMS)
    block_odd, block_even = checkerboard_split(state)
    assert block_odd.shape() == (4, 4)
    assert block_even.shape() == (5, 5)
    assert block_odd[0, 0] == GaussRat(2)   # |g|^2 + |q|^2
    assert block_even[0, 0] == GaussRat(2)  # |a|^2 + |j|^2


def test_split_permutation_consistency():
    state = build_state(presets.ONE_DISTILLABLE_PARAMS)
    block_odd, block_even = checkerboard_split(state)
    m = state.unnormalized
    perm = SPLIT_PERMUTATION
    rebuilt = GMat.from_rows(
        [[m[perm[r], perm[c]] for c in range(9)] for r in range(9)]
    )
    for r in range(4):
        for c in range(4):
            assert rebuilt[r, c] == block_odd[r, c]
    for r in range(5):
        for c in range(5):
            assert rebuilt[4 + r, 4 + c] == block_even[r, c]
    off = [rebuilt[r, c] for r in range(4) for c in range(4, 9)]
    assert not any(off)


def test_split_diagonal_state():
    entries = [[GaussRat(r + 1) if r == c else GaussRat(0) for c in range(9)] for r in range(9)]
    state = StateMatrix(*integer_lift(GMat.from_rows(entries)))
    assert state.normalizer == Fraction(45)
    block_odd, block_even = checkerboard_split(state)
    assert [block_odd[i, i] for i in range(4)] == [GaussRat(v) for v in (2, 4, 6, 8)]
    assert [block_even[i, i] for i in range(5)] == [GaussRat(v) for v in (1, 3, 5, 7, 9)]


def test_split_rejects_non_checkerboard():
    m = GMat.from_rows([[GaussRat(1)] * 9 for _ in range(9)])
    with pytest.raises(PatternError):
        checkerboard_split(StateMatrix(*integer_lift(m)))


@settings(max_examples=50, deadline=None)
@given(params_strategy)
def test_block_ranks_and_closed_form_kernel(p):
    try:
        state = build_state(p)
    except DegenerateStateError:
        return
    block_odd, block_even = checkerboard_split(state)
    vecs = build_vectors(p)
    assert rank(block_odd) == rank(GMat.from_rows([vecs[1], vecs[3]]))
    assert rank(block_even) == rank(GMat.from_rows([vecs[0], vecs[2]]))
    null = prime_block_null_basis(p)
    assert not any((block_odd @ null).data)
    # on generic samples the closed-form kernel is the whole nullspace
    if rank(block_odd) == 2 and rank(null) == 2:
        assert column_spans_equal(null, nullspace_basis(block_odd))


def test_closed_form_kernel_spans_nullspace():
    p = presets.ONE_DISTILLABLE_PARAMS
    block_odd, _ = checkerboard_split(build_state(p))
    closed = prime_block_null_basis(p)
    assert closed.shape() == (4, 2)
    assert rank(closed) == 2
    computed = nullspace_basis(block_odd)
    assert computed.cols == 2
    assert 4 - rank(block_odd) == 2
    assert column_spans_equal(closed, computed)
