import functools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from checkerboard import presets
from checkerboard.errors import DegenerateStateError
from checkerboard.family import (
    FACTOR_DEGREES,
    PARAM_LETTERS,
    VECTOR_DEGREES,
    VECTOR_LETTERS,
    CheckerParams,
    build_state,
    build_vectors,
    common_lift,
    factor_over,
    prime_block_null_basis,
    theorem1_product,
    theorem_factors,
)
from checkerboard.gaussian import GaussRat, parse_gauss
from checkerboard.matrices import GMat, rank

from conftest import small_gauss
from linalg_reference import column_spans_equal, inertia, integer_lift, matmul, nullspace_basis, trace
from reference import (
    SPLIT_PERMUTATION,
    PatternError,
    checkerboard_split,
    grid,
    has_checkerboard_pattern,
    state_from_grid,
    unnormalized,
)
from reference import lambda_mu, quad_form_F
from reference import theorem_factors as reference_factors

params_strategy = st.builds(
    CheckerParams.from_dict,
    st.fixed_dictionaries({ch: small_gauss for ch in "abcdefghijklmnpqrs"}),
)


def test_golden_matrix_first_example():
    state = build_state(presets.REDUCTION_VIOLATING_PARAMS)
    assert state.normalizer == Fraction(17)
    assert unnormalized(state) == presets.REDUCTION_VIOLATING_MATRIX


def test_golden_matrix_second_example():
    state = build_state(presets.ONE_DISTILLABLE_PARAMS)
    assert state.normalizer == Fraction(21)
    assert unnormalized(state) == presets.ONE_DISTILLABLE_MATRIX


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
    assert unnormalized(state) == expected


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
    m = unnormalized(state)
    assert m.is_hermitian()
    assert has_checkerboard_pattern(m)
    assert trace(m) == GaussRat(state.normalizer)
    assert rank(m) <= 4


def test_state_positive_semidefinite():
    from checkerboard import sampling

    for p in (presets.REDUCTION_VIOLATING_PARAMS, presets.ONE_DISTILLABLE_PARAMS):
        inert = inertia(grid(build_state(p)))
        assert inert.n_neg == 0
        assert inert.n_zero == 5
    for idx in range(10):
        p = sampling.random_checker_params(sampling.rng_for(41, idx))
        state = build_state(p)
        inert = inertia(grid(state))
        assert inert.n_neg == 0
        assert inert.n_zero == 9 - rank(unnormalized(state))


def _reduced_factors(p: CheckerParams) -> list:
    """``theorem_factors`` of the lifted parameters, each taken over its own product of the D_k."""
    parts, dens = p.lifted
    return [factor_over(z, e, dens) for z, e in zip(theorem_factors(parts), VECTOR_DEGREES)]


# v2's letters over 3, every other letter over 2: D_2 = 3 is coprime to D_1 = D_3 = D_4 = 2.
COPRIME_VECTOR_POINT = CheckerParams.from_dict(
    {ch: GaussRat(k, Fraction(1, 3 if ch in VECTOR_LETTERS[1] else 2))
     for k, ch in enumerate(PARAM_LETTERS)})


@settings(max_examples=40, deadline=None)
@given(params_strategy)
@example(COPRIME_VECTOR_POINT)
@example(CheckerParams.from_dict({ch: GaussRat(Fraction(1, 4), 1) for ch in "abcdefghi"}))
def test_each_vector_is_lifted_over_its_own_denominator(p):
    """D_k is the lcm of the denominators of v_k's parts, and each letter of v_k is lifted by it.

    ``common_lift`` gives every letter over D, the lcm of all 36 parts.
    The examples are a vector over a denominator coprime to the others',
    and v3 and v4 all zero, so D_3 = D_4 = 1.
    """
    parts, dens = p.lifted
    assert len(dens) == len(VECTOR_LETTERS) == 4
    for letters, dk in zip(VECTOR_LETTERS, dens):
        values = [getattr(p, ch) for ch in letters]
        assert dk == lcm(*(x.denominator for z in values for x in (z.re, z.im)))
        for ch, z in zip(letters, values):
            assert parts[ch] == (z.re * dk, z.im * dk)
    common, d = common_lift(parts, dens)
    assert d == lcm(*(x.denominator for z in p.as_dict().values() for x in (z.re, z.im)))
    assert common == {ch: (z.re * d, z.im * d) for ch, z in p.as_dict().items()}
    if p is COPRIME_VECTOR_POINT:
        assert (dens, d) == ((2, 3, 2, 2), 6)


def test_quad_form_first_example():
    p = presets.REDUCTION_VIOLATING_PARAMS
    form = quad_form_F(p)
    assert form.c20 == GaussRat(0, 2)
    assert form.evaluate(GaussRat(0), GaussRat(0)) == GaussRat(0)
    assert _reduced_factors(p)[2] == form.evaluate(p.l, -p.c)


def test_quad_form_zero_params():
    form = quad_form_F(CheckerParams())
    assert form.c20 == form.c11 == form.c02 == GaussRat(0)
    assert theorem_factors(CheckerParams().lifted[0]) == ((0, 0),) * 5


def test_lambda_mu():
    assert lambda_mu(CheckerParams()) == (GaussRat(0), GaussRat(0))
    p = presets.REDUCTION_VIOLATING_PARAMS
    lam, mu = lambda_mu(p)
    assert lam and mu
    assert _reduced_factors(p)[3] == quad_form_F(p).evaluate(mu, -lam)


@settings(max_examples=40, deadline=None)
@given(params_strategy)
def test_theorem_factors_equal_the_gaussrat_forms(p):
    """Each factor of the lifted pairs, over its D^k, is the factor of the parameters."""
    assert _reduced_factors(p) == list(reference_factors(p))


@functools.cache
def _generator_factors() -> tuple:
    """``theorem_factors`` of the 36 generators of sympy's Z[x_a, y_a, ..., x_s, y_s].

    Each letter's (re, im) pair is (x_ch, y_ch).  The evaluator uses no
    conjugate, so the ring needs none.
    """
    sympy = pytest.importorskip("sympy")
    _, *gens = sympy.ring(",".join(f"{part}_{ch}" for ch in PARAM_LETTERS for part in "xy"),
                          sympy.ZZ)
    return theorem_factors({ch: (gens[2 * k], gens[2 * k + 1])
                            for k, ch in enumerate(PARAM_LETTERS)})


def _degrees(z) -> set:
    return {sum(monomial) for monomial in z.monoms()}


def _times(u, v) -> tuple:
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def test_theorem1_product_is_homogeneous_of_degree_16():
    """t1(D w) = D^16 t1(w), which lets classification compute t1 on lifted integers.

    The 36 real parts of the letters, as generators of a polynomial ring
    over Z, go through the program's own ``theorem_factors``: both parts of
    each of the first four factors are homogeneous, of degrees 2, 2, 4 and
    8, so their product is homogeneous of degree 16.  Expanding the
    product itself would take millions of terms; at a lifted example,
    scaling every part by 3 scales it by 3^16.
    """
    assert [(_degrees(re), _degrees(im)) for re, im in _generator_factors()[:4]] == [
        ({k}, {k}) for k in (2, 2, 4, 8)]
    parts, _ = presets.ONE_DISTILLABLE_PARAMS.lifted
    scaled = {ch: (3 * x, 3 * y) for ch, (x, y) in parts.items()}
    t1, t1_scaled = (functools.reduce(_times, theorem_factors(w)[:4]) for w in (parts, scaled))
    assert any(t1) and t1_scaled == (3 ** 16 * t1[0], 3 ** 16 * t1[1])


def _vector_degrees(z) -> set:
    """The degrees of each monomial of z in the generators of v1, v2, v3 and v4."""
    columns = [[2 * PARAM_LETTERS.index(ch) + part for ch in letters for part in (0, 1)]
               for letters in VECTOR_LETTERS]
    return {tuple(sum(monomial[c] for c in cols) for cols in columns) for monomial in z.monoms()}


def test_theorem_factors_are_homogeneous_of_their_stated_degrees():
    """Each factor is homogeneous in each vector's letters, of the degrees it is taken over.

    ``factor_over`` divides each factor of the per-vector lifted pairs by
    D_1^e_1 D_2^e_2 D_3^e_3 D_4^e_4 for its degrees (e_1, ..., e_4) in
    ``VECTOR_DEGREES``, which is exact only when every monomial of both
    parts of the factor has degree e_k in the generators of v_k's letters.
    The total degrees are ``FACTOR_DEGREES``.
    """
    factors = _generator_factors()
    assert FACTOR_DEGREES == (2, 2, 4, 8, 5)
    assert len(factors) == len(VECTOR_DEGREES) == len(FACTOR_DEGREES)
    for (re, im), degrees, degree in zip(factors, VECTOR_DEGREES, FACTOR_DEGREES):
        assert re and im
        assert _degrees(re) == _degrees(im) == {degree}
        assert _vector_degrees(re) == _vector_degrees(im) == {degrees}


def test_theorem1_on_examples():
    assert not bool(theorem1_product(CheckerParams()))
    assert bool(theorem1_product(presets.REDUCTION_VIOLATING_PARAMS))
    assert bool(theorem1_product(presets.ONE_DISTILLABLE_PARAMS))
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
    m = unnormalized(state)
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
    state = state_from_grid(*integer_lift(GMat.from_rows(entries)))
    assert state.normalizer == Fraction(45)
    block_odd, block_even = checkerboard_split(state)
    assert [block_odd[i, i] for i in range(4)] == [GaussRat(v) for v in (2, 4, 6, 8)]
    assert [block_even[i, i] for i in range(5)] == [GaussRat(v) for v in (1, 3, 5, 7, 9)]


def test_split_rejects_non_checkerboard():
    m = GMat.from_rows([[GaussRat(1)] * 9 for _ in range(9)])
    with pytest.raises(PatternError):
        checkerboard_split(state_from_grid(*integer_lift(m)))


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
    assert not any(matmul(block_odd, null).data)
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
