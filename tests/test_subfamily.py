from fractions import Fraction

import pytest

from checkerboard import presets, sampling
from checkerboard.criteria import partial_transpose_matrix
from checkerboard.errors import CheckerboardError, SingularParameterError
from checkerboard.family import (
    PARAM_LETTERS,
    CheckerParams,
    build_state,
    outer_sum_entries,
    placed_vectors,
    theorem1_product,
)
from checkerboard.gaussian import GaussRat, parse_gauss
from checkerboard.subfamily import (
    COMPLEX_LETTERS,
    BrussPeresParams,
    SubfamilyParams,
    bruss_peres_embed,
    complete_parameters,
    derive_full_params,
    theorem2_product,
)
from reference import (
    fixed_point_conditions,
    fixed_point_defects,
    lambda_mu,
    quad_form_F,
    unnormalized,
)


def test_derived_values_at_rank_point():
    """Completion at the distinguished point, frozen via an independent derivation."""
    full = derive_full_params(presets.SUBFAMILY_RANK_POINT)
    assert full.d == parse_gauss("1-i")
    assert full.e == parse_gauss("-1/4-7/4i")
    assert full.g == parse_gauss("i")
    assert full.h == parse_gauss("1/2")
    assert full.i == parse_gauss("-1/2-1/2i")
    assert full.n == parse_gauss("1/4-9/4i")
    assert full.q == parse_gauss("1/2-1/2i")
    assert full.r == parse_gauss("-3/2i")


def test_rank_point_state_is_gamma_fixed():
    full = derive_full_params(presets.SUBFAMILY_RANK_POINT)
    assert fixed_point_conditions(full)
    state = build_state(full)
    assert partial_transpose_matrix(unnormalized(state)) == unnormalized(state)


def test_theorem2_product_at_rank_point():
    value = theorem2_product(presets.SUBFAMILY_RANK_POINT)
    assert value == GaussRat(3250, Fraction(60125, 8))
    assert bool(theorem2_product(presets.SUBFAMILY_RANK_POINT))


def _rank_point_with(**overrides):
    base = dict(
        t=Fraction(1), x=Fraction(0), y=Fraction(-1),
        a=parse_gauss("-i"), b=parse_gauss("1-i"), c=parse_gauss("i"),
        f=parse_gauss("1-i"), j=parse_gauss("-i"), k=parse_gauss("-1+i"),
        l=parse_gauss("0"), m=parse_gauss("-1+i"), p=parse_gauss("1+i"),
        s=parse_gauss("i"),
    )
    base.update(overrides)
    return SubfamilyParams(**base)


def test_singular_denominators_are_named():
    with pytest.raises(SingularParameterError) as err:
        derive_full_params(_rank_point_with(a=GaussRat(0)))
    assert err.value.denominator == "a"
    with pytest.raises(SingularParameterError) as err:
        derive_full_params(_rank_point_with(b=GaussRat(0)))
    assert err.value.denominator == "b"
    with pytest.raises(SingularParameterError) as err:
        derive_full_params(_rank_point_with(f=GaussRat(0)))
    assert err.value.denominator == "f"
    # a k = b j makes the last elimination denominator vanish
    with pytest.raises(SingularParameterError) as err:
        derive_full_params(
            _rank_point_with(k=GaussRat(0), j=GaussRat(0), y=Fraction(0))
        )
    assert err.value.denominator == "ak-bj"
    # with f = s = p = 1 and t = 2 the derived i is 1, so fs - ip = 0
    with pytest.raises(SingularParameterError) as err:
        derive_full_params(
            _rank_point_with(t=Fraction(2), s=GaussRat(1), p=GaussRat(1), f=GaussRat(1))
        )
    assert err.value.denominator == "fs-ip"


def test_fixed_point_conditions_on_examples():
    assert not fixed_point_conditions(presets.REDUCTION_VIOLATING_PARAMS)
    assert not fixed_point_conditions(presets.ONE_DISTILLABLE_PARAMS)
    assert fixed_point_conditions(CheckerParams())  # vacuous equalities


def test_fixed_point_matches_transpose_equality():
    """The eight conditions hold exactly when rho^Gamma = rho, members and non-members."""
    for idx in range(50):
        _, full = sampling.random_subfamily_params(sampling.rng_for(31, idx))
        state = build_state(full)
        fixed = partial_transpose_matrix(unnormalized(state)) == unnormalized(state)
        assert fixed_point_conditions(full) == fixed
        assert fixed
        # perturb one derived parameter; the equivalence must still hold
        perturbed = CheckerParams.from_dict(
            {**full.as_dict(), "g": full.g + GaussRat(1)}
        )
        pstate = build_state(perturbed)
        pfixed = (
            partial_transpose_matrix(unnormalized(pstate)) == unnormalized(pstate)
        )
        assert fixed_point_conditions(perturbed) == pfixed


def test_fixed_point_conditions_symbolic():
    """rho^Gamma = rho holds exactly when the eight conditions hold, at every point.

    Each letter is re + i im with real symbols and rho comes from the
    program's own outer-product construction.  Every nonzero entry of
    rho^Gamma - rho equals, up to sign, the defect lhs - rhs of one of the
    five complex conditions of ``fixed_point_conditions``, its conjugate,
    or 2i times the imaginary part of one of the three real ones, and each
    of the eight occurs.
    """
    sympy = pytest.importorskip("sympy")
    cj = sympy.conjugate
    z = {ch: sympy.Symbol(f"{ch}_re", real=True) + sympy.I * sympy.Symbol(f"{ch}_im", real=True)
         for ch in PARAM_LETTERS}
    rho = outer_sum_entries(placed_vectors(z), 0)
    gamma_minus_rho = [
        sympy.expand(rho[3 * i + j2][3 * i2 + j] - rho[3 * i + j][3 * i2 + j2])
        for i in range(3) for j in range(3) for i2 in range(3) for j2 in range(3)
    ]
    p = CheckerParams.from_dict(z)
    complex_pairs = (
        (p.f * cj(p.g) + p.p * cj(p.q), p.c * cj(p.a) + p.l * cj(p.j)),
        (p.i * cj(p.g) + p.s * cj(p.q), p.c * cj(p.d) + p.l * cj(p.m)),
        (p.f * cj(p.h) + p.p * cj(p.r), p.c * cj(p.b) + p.l * cj(p.k)),
        (p.i * cj(p.h) + p.s * cj(p.r), p.c * cj(p.e) + p.l * cj(p.n)),
        (p.a * cj(p.e) + p.j * cj(p.n), p.d * cj(p.b) + p.m * cj(p.k)),
    )
    real_parts = (
        p.a * cj(p.d) + p.j * cj(p.m),
        p.b * cj(p.e) + p.k * cj(p.n),
        p.f * cj(p.i) + p.p * cj(p.s),
    )
    defects = {}
    for idx, (lhs, rhs) in enumerate(complex_pairs):
        defect = sympy.expand(lhs - rhs)
        defects[defect] = defects[sympy.expand(cj(defect))] = f"complex {idx}"
    for idx, value in enumerate(real_parts):
        defects[sympy.expand(2 * sympy.I * sympy.im(sympy.expand(value)))] = f"real {idx}"
    seen = set()
    for entry in gamma_minus_rho:
        if entry == 0:
            continue
        name = defects.get(entry) or defects.get(-entry)
        assert name is not None, entry
        seen.add(name)
    assert len(seen) == 8


def test_completion_satisfies_the_fixed_point_conditions_symbolic():
    """Every completed point is gamma-fixed: the eight defects cancel identically.

    t, x, y are real symbols and the ten free letters complex ones, each
    independent of its conjugate; they go through the program's own
    ``complete_parameters`` and ``fixed_point_defects``, and every defect
    cancels to zero as a rational function.  At a point that is not
    completed no defect vanishes, so the check is not vacuous.
    """
    sympy = pytest.importorskip("sympy")
    t, x, y = sympy.symbols("t x y", real=True)
    free = sympy.symbols(" ".join(COMPLEX_LETTERS))
    full = CheckerParams.from_dict(complete_parameters(t, x, y, *free))
    assert [sympy.cancel(d) for d in fixed_point_defects(full)] == [0] * 8
    generic = CheckerParams(*sympy.symbols(" ".join(PARAM_LETTERS)))
    assert all(sympy.expand(d) != 0 for d in fixed_point_defects(generic))


def test_completion_is_weighted_homogeneous_symbolic():
    """Scaling the ten free letters by s and t, x, y by s^2 scales every completed letter by s.

    The free letters are complex symbols, each independent of its
    conjugate, and t, x, y real ones; both points go through the
    program's own ``complete_parameters``.  So the overall scale of the
    state, rho -> s^2 rho, is a direction inside the family's image, and
    ``normalized_family_lower_bound`` (``report.jacobian_report``) may
    subtract one from the rank for it.
    """
    sympy = pytest.importorskip("sympy")
    s = sympy.symbols("s", positive=True)
    reals = sympy.symbols("t x y", real=True)
    free = sympy.symbols(" ".join(COMPLEX_LETTERS))
    base = complete_parameters(*reals, *free)
    scaled = complete_parameters(*(s ** 2 * v for v in reals), *(s * z for z in free))
    assert set(scaled) == set(PARAM_LETTERS)
    assert all(sympy.cancel(scaled[ch] - s * base[ch]) == 0 for ch in PARAM_LETTERS)


def test_theorem2_contains_theorem1_factor():
    for idx in range(20):
        sp, full = sampling.random_subfamily_params(sampling.rng_for(32, idx))
        if bool(theorem2_product(sp)):
            assert theorem1_product(full) != GaussRat(0)


def test_embed_concrete_example():
    bp = BrussPeresParams(
        t=Fraction(1), x=Fraction(2),
        a=GaussRat(1), b=GaussRat(1), c=GaussRat(1), f=GaussRat(1),
    )
    sp = bruss_peres_embed(bp)
    assert sp.k == GaussRat(0) and sp.y == Fraction(0)
    assert sp.j == GaussRat(1)
    assert sp.l == GaussRat(-1)
    assert sp.m == GaussRat(2)
    assert sp.p == GaussRat(Fraction(1, 2))
    assert sp.s == GaussRat(2)
    full = derive_full_params(sp)
    for ch in "deinr":
        assert getattr(full, ch) == GaussRat(0)
    assert full.q == GaussRat(-1)
    assert full.h == GaussRat(1)
    # the completion forces g = conj(p), here 1/2
    assert full.g == GaussRat(Fraction(1, 2))
    assert full.g == sp.p.conj()


def test_embed_identities_on_random_points():
    """Identities forced by the embedding, checked symbolically on samples.

    The derived g always equals conj(p) = t f conj(c) / (x conj(a)); the
    closed form of F(mu, -lambda) carries the matching 1/(a c |f|^4)
    weight.
    """
    for idx in range(50):
        bp = sampling.random_bruss_peres_params(sampling.rng_for(33, idx))
        sp = bruss_peres_embed(bp)
        full = derive_full_params(sp)
        t, x = GaussRat(bp.t), GaussRat(bp.x)
        a, b, c, f = bp.a, bp.b, bp.c, bp.f
        for ch in "deinr":
            assert getattr(full, ch) == GaussRat(0)
        assert full.q == -f.conj()
        assert full.h == b * c.conj() / f.conj()
        assert full.g == sp.p.conj()
        assert full.g == t * f * c.conj() / (x * a.conj())
        form = quad_form_F(full)
        assert form.evaluate(full.l, -full.c) == -(x * b * a.conj())
        lam, mu = lambda_mu(full)
        weight = x * a.abs2() - t * f.abs2()
        expected = (
            x * b ** 3 * c.conj() * weight * weight
            / (a * c * GaussRat(f.abs2() ** 2))
        )
        assert form.evaluate(mu, -lam) == expected


def test_embed_states_are_gamma_fixed_and_generic():
    for idx in range(10):
        bp = sampling.random_bruss_peres_params(sampling.rng_for(34, idx))
        sp = bruss_peres_embed(bp)
        full = derive_full_params(sp)
        state = build_state(full)
        assert partial_transpose_matrix(unnormalized(state)) == unnormalized(state)
        # every valid embedded point passes the full genericity product
        assert bool(theorem2_product(sp))


def test_embed_singular_inputs():
    good = dict(t=Fraction(1), x=Fraction(1), a=GaussRat(1), b=GaussRat(1),
                c=GaussRat(1), f=GaussRat(1))
    for name in ("a", "b", "c", "f"):
        bad = dict(good)
        bad[name] = GaussRat(0)
        with pytest.raises(SingularParameterError):
            bruss_peres_embed(BrussPeresParams(**bad))
    with pytest.raises(SingularParameterError):
        bruss_peres_embed(BrussPeresParams(**{**good, "x": Fraction(0)}))


def test_embed_real_only_flag():
    complex_bp = BrussPeresParams(
        t=Fraction(1), x=Fraction(1),
        a=GaussRat(1, 1), b=GaussRat(1), c=GaussRat(1), f=GaussRat(1),
    )
    with pytest.raises(CheckerboardError):
        bruss_peres_embed(complex_bp, real_only=True)
    real_bp = BrussPeresParams(
        t=Fraction(1), x=Fraction(2),
        a=GaussRat(2), b=GaussRat(-1), c=GaussRat(3), f=GaussRat(1),
    )
    sp = bruss_peres_embed(real_bp, real_only=True)
    assert derive_full_params(sp) is not None


def test_embed_identities_symbolic():
    """The ten identities of acceptance criterion 11, proved as rational identities.

    Symbols are pushed through the program's own completion under the
    documented embedding, with each complex variable and its conjugate
    treated as independent indeterminates; an identity holds when the
    difference cancels to zero.  The two reference forms once stated for
    the embedded family (g = t f c* and the old F(mu, -lambda) closed
    form) are shown not to be identities.
    """
    sympy = pytest.importorskip("sympy")
    t, x = sympy.symbols("t x", real=True)
    a, b, c, f = sympy.symbols("a b c f")
    cj = sympy.conjugate
    embedded = dict(
        j=cj(c), k=0, l=-cj(a), m=x / c,
        p=t * c * cj(f) / (x * a), s=x * cj(a) / (f * cj(c)),
    )
    full = CheckerParams.from_dict(complete_parameters(t, x, 0, a, b, c, f, **embedded))
    form = quad_form_F(full)
    lam, mu = lambda_mu(full)
    f_mu_lam = form.evaluate(mu, -lam)
    weight = x * a * cj(a) - t * f * cj(f)

    def identity(lhs, rhs):
        return sympy.cancel(lhs - rhs) == 0

    for ch in "deinr":
        assert identity(getattr(full, ch), 0), ch
    assert identity(full.g, t * f * cj(c) / (x * cj(a)))
    assert identity(full.g, cj(full.p))
    assert identity(full.q, -cj(f))
    assert identity(full.h, b * cj(c) / cj(f))
    assert identity(form.evaluate(full.l, -full.c), -x * b * cj(a))
    assert identity(f_mu_lam, x * b ** 3 * cj(c) * weight ** 2 / (a * c * (f * cj(f)) ** 2))
    # the old reference forms
    assert not identity(full.g, t * f * cj(c))
    assert not identity(
        f_mu_lam,
        x * (b * cj(c)) ** 3 * weight ** 2 / (a * cj(a) * c * cj(c) * (f * cj(f)) ** 2),
    )
