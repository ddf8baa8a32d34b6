from fractions import Fraction
from itertools import combinations, islice, product

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import checkerboard.criteria as criteria
import checkerboard.matrices as matrices
from checkerboard import presets, sampling
from checkerboard.charpoly import Inertia, blocks_inertia, char_poly, inertia_from_char_poly
from checkerboard.criteria import (
    RangeCertificate,
    WitnessVector,
    is_ppt,
    partial_transpose_matrix,
    range_certificate,
    range_has_no_product_vector,
    reduction_criterion,
    reduction_matrices,
    schmidt_rank,
    witness_expectation,
)
from checkerboard.errors import DegenerateStateError, SingularParameterError
from checkerboard.family import (
    BLOCK_POSITIONS,
    CheckerParams,
    PARAM_LETTERS,
    StateMatrix,
    build_state,
    build_vectors,
    common_lift,
    outer_sum_entries,
    partial_transpose_blocks,
    placed_vectors,
    theorem1_product,
)
from checkerboard.gaussian import GaussInt, GaussRat
from checkerboard.matrices import GMat, ZMat, kron, primes, rank
from checkerboard.subfamily import derive_full_params

from linalg_reference import identity, integer_lift, over, sub, trace, transpose
from reference import grid, normalized, search_product_vector_numeric, state_from_grid, unnormalized
from conftest import (
    SIZED_POINTS,
    big_fractions,
    big_gauss,
    checker_points,
    gauss_matrix,
    generate_only,
    hermitian_matrix,
    nonzero_gauss,
    replace,
    small_fractions,
    sparse_gauss,
    subfamily_points,
)


def _state_from(m: GMat) -> StateMatrix:
    return state_from_grid(*integer_lift(m))


def partial_transpose(s: StateMatrix) -> GMat:
    """rho^Gamma of the normalized state."""
    return partial_transpose_matrix(normalized(s))


def partial_traces(m: GMat) -> tuple:
    """(tr_B m, tr_A m) of a 9x9 GMat in the fixed basis ordering."""
    rho_a = GMat.from_rows(
        [[sum(m[3 * i + j, 3 * i2 + j] for j in range(3)) for i2 in range(3)] for i in range(3)]
    )
    rho_b = GMat.from_rows(
        [[sum(m[3 * i + j, 3 * i + j2] for i in range(3)) for j2 in range(3)] for j in range(3)]
    )
    return rho_a, rho_b


def reduced_states(s: StateMatrix) -> tuple:
    """Partial traces (rho_A, rho_B) of the normalized state."""
    return partial_traces(normalized(s))


def range_product_vector_certificate(p: CheckerParams) -> RangeCertificate:
    """Exact range-criterion outcome for the state built from ``p``."""
    return range_certificate(theorem1_product(p))


@settings(max_examples=30, deadline=None)
@given(gauss_matrix(9, 9))
def test_partial_transpose_involution_and_diagonal(rows):
    m = GMat.from_rows(rows)
    g = partial_transpose_matrix(m)
    assert partial_transpose_matrix(g) == m
    assert trace(g) == trace(m)
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
    assert partial_transpose_matrix(kron(a, b)) == kron(a, transpose(b))


def test_partial_transpose_of_state_is_normalized():
    state = build_state(presets.REDUCTION_VIOLATING_PARAMS)
    g = partial_transpose(state)
    assert trace(g) == GaussRat(1)


def test_reduced_states_of_transposed_state():
    state = build_state(presets.ONE_DISTILLABLE_PARAMS)
    ra, rb = reduced_states(state)
    gstate = _state_from(partial_transpose_matrix(unnormalized(state)))
    ga, gb = reduced_states(gstate)
    assert ga == ra
    assert gb == transpose(rb)


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


def _quadratic_form(blocks, x):
    """<x|M|x> for the 9x9 matrix M whose blocks on ``BLOCK_POSITIONS`` are ``blocks``."""
    sympy = pytest.importorskip("sympy")
    return sum(sympy.conjugate(x[r]) * entry * x[c]
               for pos, blk in zip(BLOCK_POSITIONS, blocks)
               for r, row in zip(pos, blk) for c, entry in zip(pos, row))


def test_gamma_form_on_a_conjugated_product_is_the_state_form():
    """<e (x) conj(f)|rho^Gamma|e (x) conj(f)> = <e (x) f|rho|e (x) f> for symbolic blocks.

    The first half of the proof in ``is_ppt``'s docstring, through the
    program's own ``partial_transpose_blocks``; e and f are symbolic 3-vectors.
    """
    sympy = pytest.importorskip("sympy")
    blocks = tuple(tuple(tuple(sympy.Symbol(f"r{b}_{x}_{y}") for y in range(len(pos)))
                         for x in range(len(pos))) for b, pos in enumerate(BLOCK_POSITIONS))
    e, f = sympy.symbols("e0:3"), sympy.symbols("f0:3")
    product_vector = [e[i] * f[j] for i in range(3) for j in range(3)]
    conjugated = [e[i] * sympy.conjugate(f[j]) for i in range(3) for j in range(3)]
    gamma_form = _quadratic_form(partial_transpose_blocks(blocks), conjugated)
    assert sympy.expand(gamma_form - _quadratic_form(blocks, product_vector)) == 0


def test_a_root_of_the_corner_quadric_gives_a_product_vector_in_the_kernel():
    """e (x) f on positions 0, 2, 6 and 8 is orthogonal to all four generating vectors.

    The second half of the proof in ``is_ppt``'s docstring, on the letters
    of ``placed_vectors`` as symbols: with u = e^T conj(M1) and
    f = (-u2, u0), <v2|e (x) f> and <v4|e (x) f> vanish by support,
    <v1|e (x) f> vanishes identically and <v3|e (x) f> = q(e).  At the
    root e = (s - beta, 2 alpha) of q = alpha e0^2 + beta e0 e2 + gamma e2^2,
    with s^2 = beta^2 - 4 alpha gamma, all four vanish.  (If alpha = 0,
    e = (1, 0) is a root: q(1, 0) = alpha.)
    """
    sympy = pytest.importorskip("sympy")
    vectors = [dict(vec) for vec in placed_vectors({ch: sympy.Symbol(ch) for ch in PARAM_LETTERS})]

    def kernel_products(e0, e2):
        """(<v_k|e (x) f> for k = 1..4, q(e)) at e = (e0, e2)."""
        e = {0: e0, 2: e2}
        u, w = ({j: sum(e[i] * sympy.conjugate(vec.get(3 * i + j, 0)) for i in e) for j in e}
                for vec in (vectors[0], vectors[2]))
        f = {0: -u[2], 2: u[0]}
        x = {3 * i + j: e[i] * f[j] for i in e for j in f}
        return ([sympy.expand(sum(sympy.conjugate(z) * x.get(pos, 0) for pos, z in vec.items()))
                 for vec in vectors], sympy.expand(u[0] * w[2] - u[2] * w[0]))

    e0, e2, s = sympy.symbols("e0 e2 s")
    (v1, v2, v3, v4), q = kernel_products(e0, e2)
    assert (v1, v2, v4) == (0, 0, 0)
    assert sympy.expand(v3 - q) == 0
    coeffs = sympy.Poly(q, e0, e2)
    alpha, beta, gamma = (coeffs.coeff_monomial(m) for m in (e0**2, e0 * e2, e2**2))
    assert q.subs({e0: 1, e2: 0}) == alpha
    at_root, _ = kernel_products(s - beta, 2 * alpha)
    for value in at_root:
        assert sympy.rem(value, s**2 - (beta**2 - 4 * alpha * gamma), s) == 0


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
    assert trace(ra) == GaussRat(1)
    assert trace(rb) == GaussRat(1)
    m = normalized(state)
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
    m = identity(9)
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
    for idx in range(100):
        rng = sampling.rng_for(55, idx)
        while True:
            p = sampling.random_checker_params(rng)
            if bool(theorem1_product(p)):
                break
        hit = search_product_vector_numeric(p, attempts=40, tolerance=1e-8, seed=idx)
        assert hit is None


def _sized_full_point(family, point):
    """The 18 letters of a drawn point; a ppt point whose completion is singular is assumed away."""
    if family == "full":
        return point
    try:
        return derive_full_params(point)
    except SingularParameterError:
        assume(False)


@pytest.mark.parametrize("size", ["default", "5-digit", "20-digit"])
@pytest.mark.parametrize("family", ["full", "ppt"])
def test_range_test_certifies_every_point_with_nonzero_t1(family, size):
    """Theorem 1: t1 != 0 leaves no product vector in the range, and one prime proves it."""
    @generate_only(10)
    @given(SIZED_POINTS[family][size])
    def check(point):
        p = _sized_full_point(family, point)
        assume(theorem1_product(p))
        assert range_has_no_product_vector(p)

    check()


@pytest.mark.parametrize("size", ["default", "5-digit", "20-digit"])
def test_range_test_never_certifies_a_span_holding_a_product_vector(size):
    """v2 = f|10>, or v1 + v3 = (a0|0> + a2|2>)(b0|0> + b2|2>), with the other letters generic."""
    @generate_only(10)
    @given(SIZED_POINTS["full"][size], st.tuples(*[nonzero_gauss] * 4))
    def check(p, factors):
        zero = GaussRat(0)
        assert not range_has_no_product_vector(replace(p, g=zero, h=zero, i=zero))
        a0, a2, b0, b2 = factors
        q = replace(p, j=a0 * b0 - p.a, k=a2 * b0 - p.b, l=-p.c, m=a0 * b2 - p.d, n=a2 * b2 - p.e)
        assert not range_has_no_product_vector(q)

    check()


# The letters zeroed in a generic point: one generating vector left on two
# basis positions.  Where those positions share no row and no column, the
# vector has rank 2 on one 2x2 sub-block, whose minor alone is nonzero on
# it; the five sub-blocks whose row pair and column pair differ by the same
# parity are each hit twice.  Where they share one, the vector is a product.
RANGE_POINT_ZEROS = {
    "v1 = a|00> + c|11>": "bde", "v2 = g|01> + f|10>": "hi",
    "v1 = d|02> + c|11>": "abe", "v2 = g|01> + i|12>": "fh",
    "v1 = b|20> + c|11>": "ade", "v2 = f|10> + h|21>": "gi",
    "v1 = c|11> + e|22>": "abd", "v2 = i|12> + h|21>": "fg",
    "v1 = a|00> + e|22>": "bcd", "v1 = d|02> + b|20>": "ace",
    "v2 = f|10>": "ghi", "v2 = f|10> + i|12>": "gh", "v3 = j|00> + k|20>": "lmn",
}


def _range_point(name):
    presets_by_name = {"first example": presets.REDUCTION_VIOLATING_PARAMS,
                       "second example": presets.ONE_DISTILLABLE_PARAMS,
                       "single letter": CheckerParams(a=GaussRat(2, 1))}
    if name in presets_by_name:
        return presets_by_name[name]
    generic = sampling.random_checker_params(sampling.rng_for(9, 0))
    return replace(generic, **dict.fromkeys(RANGE_POINT_ZEROS[name], GaussRat(0)))


@pytest.mark.parametrize("name", ["first example", "second example", "single letter",
                                  *RANGE_POINT_ZEROS])
def test_range_test_agrees_with_a_groebner_basis(name):
    """Certified exactly where the nine minors have no common zero but 0 over QQ_I.

    The minors are homogeneous, so their zero set is a cone, and it is {0}
    exactly when the ideal is zero-dimensional.
    """
    sympy = pytest.importorskip("sympy")
    p = _range_point(name)
    lams = sympy.symbols("l1:5")
    m = sympy.zeros(3, 3)
    for lam, vec in zip(lams, placed_vectors(p.as_dict())):
        for pos, z in vec:
            m[pos // 3, pos % 3] += lam * (sympy.Rational(z.re) + sympy.I * sympy.Rational(z.im))
    minors = [sympy.expand(m.extract(list(rows), list(cols)).det())
              for rows, cols in product(combinations(range(3), 2), repeat=2)]
    basis = sympy.groebner(minors, *lams, order="grevlex", domain=sympy.QQ_I)
    assert range_has_no_product_vector(p) == basis.is_zero_dimensional


# The first two primes of the walk, and a t1 != 0 point where P divides c's denominator.
(P, IOTA), (P2, _) = islice(primes(), 2)
SKIPPED_P_POINT = replace(presets.ONE_DISTILLABLE_PARAMS, c=GaussRat(Fraction(3, 2 * P), 1))


def test_range_test_skips_a_prime_dividing_a_denominator(monkeypatch):
    walked = []
    original = criteria.rank_mod_p

    def spy(rows, p):
        walked.append(p)
        return original(rows, p)

    monkeypatch.setattr(criteria, "rank_mod_p", spy)
    assert theorem1_product(SKIPPED_P_POINT)
    assert range_has_no_product_vector(SKIPPED_P_POINT)
    assert walked == [P2]


def test_range_test_is_undecided_when_the_primes_run_out(monkeypatch):
    monkeypatch.setattr(matrices, "primes", lambda: iter([(P, IOTA)]))
    assert not range_has_no_product_vector(SKIPPED_P_POINT)


def test_numeric_oracle_agrees_with_reproduce_item13():
    """The seesaw search, run as item 13 once ran it, agrees with its exact verdicts.

    Every certified-generic point is certified by the range test and the
    search finds nothing; at every single-letter point the search finds a
    product vector and the basis vector at the letter's position is in the
    range.
    """
    from checkerboard.reproduce import SEED_RANGE

    for idx in range(20):
        rng = sampling.rng_for(SEED_RANGE, idx)
        while True:
            p = sampling.random_checker_params(rng)
            if bool(theorem1_product(p)):
                break
        assert range_has_no_product_vector(p)
        assert search_product_vector_numeric(p, attempts=200, tolerance=1e-8,
                                             seed=SEED_RANGE + idx) is None
    position = {ch: pos for vec in placed_vectors({ch: ch for ch in PARAM_LETTERS})
                for pos, ch in vec}
    for idx in range(20):
        rng = sampling.rng_for(SEED_RANGE, 1000 + idx)
        letter = PARAM_LETTERS[idx % len(PARAM_LETTERS)]
        p = CheckerParams.from_dict({letter: sampling.random_nonzero_gauss(rng)})
        vecs = build_vectors(p)
        basis = tuple(GaussRat(int(k == position[letter])) for k in range(9))
        assert rank(GMat.from_rows(vecs + (basis,))) == rank(GMat.from_rows(vecs))
        assert not range_has_no_product_vector(p)
        assert search_product_vector_numeric(p, attempts=200, tolerance=1e-8,
                                             seed=SEED_RANGE + 1000 + idx) is not None


def test_fixed_point_states_satisfy_all_criteria_on_100_samples():
    """Generic fixed-point states: PPT, reduction satisfied, range certificate firm."""
    from checkerboard.subfamily import theorem2_product

    checked = 0
    idx = 0
    while checked < 100:
        sp, full = sampling.random_subfamily_params(sampling.rng_for(56, idx))
        idx += 1
        if not bool(theorem2_product(sp)):
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


seeds = st.integers(0, 2**32 - 1)
BLOCK_SPLIT_POINTS = {
    ("full", "default"): (
        seeds.map(lambda seed: sampling.random_checker_params(sampling.rng_for(seed))), 15),
    ("full", "20-digit"): (checker_points(big_gauss), 2),
    ("full", "sparse"): (checker_points(sparse_gauss), 15),
    ("ppt", "default"): (
        seeds.map(lambda seed: sampling.draw_subfamily_params(sampling.rng_for(seed))), 15),
    ("ppt", "20-digit"): (subfamily_points(big_fractions, big_gauss, big_gauss), 2),
    ("ppt", "sparse"): (subfamily_points(st.just(Fraction(0)) | small_fractions, sparse_gauss), 15),
}


@pytest.mark.parametrize("kind,name", list(BLOCK_SPLIT_POINTS))
def test_block_pairs_are_the_9x9_definitions(kind, name):
    """rho, rho^Gamma and both reduction matrices, each assembled from its block pair,
    equal their 9x9 definitions on the parameters over their common denominator
    (``common_lift``): W W*, the partial transpose of that grid, and
    rho_A (x) 1 - rho and 1 (x) rho_B - rho from the partial traces.  So every
    entry outside the blocks is zero.  Each block is Hermitian, and the block
    inertia is that of the whole matrix's char poly."""
    strategy, examples = BLOCK_SPLIT_POINTS[kind, name]

    @settings(max_examples=examples, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(strategy)
    def check(params):
        try:
            full = derive_full_params(params) if kind == "ppt" else params
            state = build_state(full)
        except (SingularParameterError, DegenerateStateError):
            assume(False)
        parts, _ = common_lift(*full.lifted)
        lifted = ZMat.from_rows(outer_sum_entries(
            placed_vectors({ch: GaussInt(*z) for ch, z in parts.items()}), GaussInt(0)))
        m = over(lifted, 1)
        rho_a, rho_b = partial_traces(m)
        one = identity(3)
        first, second = (integer_lift(x)[0] for x in (sub(kron(rho_a, one), m), sub(kron(one, rho_b), m)))
        pairs = [state.blocks, state.gamma, *reduction_matrices(state)]
        for pair, definition in zip(pairs, (lifted, partial_transpose_matrix(lifted), first, second)):
            assert grid(StateMatrix(pair, 1)) == definition
            for rows in pair:
                assert ZMat.from_rows([[GaussInt(*z) for z in row] for row in rows]).is_hermitian()
            assert blocks_inertia(pair) == inertia_from_char_poly(char_poly(definition), 9)

    check()
