"""Certified Jacobian ranks: the closed forms, the proofs mod p and the exact fallback.

The reference is the jet-based construction in ``jet_reference``.  Every
certified rank must equal the exact rank it computes, the subfamily's
rows mod the first prime P must equal its split-jet rows and the image
of its exact Jacobian, the full-family rank is 28 exactly when both
leading block minors are nonzero, the subfamily's closed-form kernel
vector lies in the kernel of its exact Jacobian, and a point reaches the
exact ``rank`` only when neither closed form nor any prime of the budget
gives a proof.

The properties run without hypothesis's shrink phase: every shrink step
recomputes an exact jet Jacobian and its rank, so a failing property
would take minutes to report.  The examples are the same derandomized
draws either way.
"""

import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

import checkerboard.counting as counting
from checkerboard import presets, sampling
from checkerboard.counting import (
    LAMBDA_SLOT_ORDER,
    jacobian_rank_lambda,
    jacobian_rank_psi,
    psi_jacobian,
)
from checkerboard.errors import SingularParameterError
from checkerboard.family import CheckerParams, outer_sum_entries, placed_vectors
from checkerboard.gaussian import GaussRat, conj
from checkerboard.matrices import GMat, is_prime, primes, rank, rank_mod_p, split_residue
from checkerboard.subfamily import (
    COMPLEX_LETTERS,
    SubfamilyParams,
    complete_parameters,
    derive_full_params,
)
from conftest import (
    big_fractions,
    generate_only,
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
from jet_reference import (
    lambda_jacobian,
    lambda_rank,
    lambda_rows_mod_p,
    psi_coordinate_jets,
    psi_rank,
)

# The first two primes p = 1 mod 4 of the walk, with their square roots of -1.
(P, IOTA), (P2, _) = islice(primes(), 2)


def _vanishing_minor(pick):
    """(f, p) = s(g, q) or (d, m) = s(a, j): the odd or the even leading block minor is 0."""
    point, odd, s = pick
    lead, low = (("g", "q"), ("f", "p")) if odd else (("a", "j"), ("d", "m"))
    values = point.as_dict()
    values.update({ch: s * values[top] for ch, top in zip(low, lead)})
    return CheckerParams.from_dict(values)


def vanishing_minor_points(odd):
    return st.tuples(checker_points(small_gauss), odd, small_gauss).map(_vanishing_minor)


PSI_STRATEGIES = {
    "default": checker_points(small_gauss),
    "sparse": checker_points(sparse_gauss),
    "20-digit": checker_points(big_gauss),
    "single-nonzero": single_nonzero_points,
    "vanishing-minor": vanishing_minor_points(st.booleans()),
}


def _minors(p):
    """gp - qf and am - jd: the leading 2x2 minors of the odd and the even block's rows."""
    return (p.g * p.p - p.q * p.f, p.a * p.m - p.j * p.d)


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
    "sparse": subfamily_points(st.just(Fraction(0)) | small_fractions, sparse_gauss,
                               required_letters="abfks"),
    "5-digit": subfamily_points(digit_fractions(5), _gauss5, _gauss5),
    "single-nonzero": st.tuples(st.tuples(*[nonzero_gauss] * 5),
                                st.tuples(st.sampled_from("txycjlmp"), nonzero_gauss)
                                ).map(_one_more_nonzero),
    "20-digit": subfamily_points(big_fractions, big_gauss, big_gauss),
}

# The sparse points keep a, b, f, k and s nonzero, so few fail to complete.
LAMBDA_EXAMPLES = {"sparse": 6, "20-digit": 2}


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
    @generate_only(4)
    @given(PSI_STRATEGIES[strategy])
    def check(p):
        jets = psi_coordinate_jets(p)
        rows = psi_jacobian({ch: (z.re, z.im) for ch, z in p.as_dict().items()})
        assert rows == [[g.re for g in jet.grad] for jet in jets]
        assert not any(g.im for jet in jets for g in jet.grad)
        exact = psi_rank(p)
        assert jacobian_rank_psi(p) == exact
        assert (exact == 28) == all(_minors(p))

    check()


@pytest.mark.parametrize("odd", [True, False], ids=["odd", "even"])
def test_psi_rank_at_a_vanishing_minor_takes_one_exact_rank(odd, exact_rank_calls):
    @generate_only(4)
    @given(vanishing_minor_points(st.just(odd)))
    def check(p):
        exact_rank_calls.clear()
        assert jacobian_rank_psi(p) == psi_rank(p) < 28
        assert exact_rank_calls == [(28, 36)]

    check()


def test_psi_rank_is_certified_at_sampled_points(exact_rank_calls):
    for idx in range(10):
        assert jacobian_rank_psi(sampling.random_checker_params(sampling.rng_for(65, idx))) == 28
    assert exact_rank_calls == []


def test_psi_rank_at_zero_point_falls_back(exact_rank_calls):
    assert jacobian_rank_psi(CheckerParams()) == 0
    assert exact_rank_calls == [(28, 36)]


def test_psi_closed_form_answers_28_when_p_divides_a_denominator(exact_rank_calls):
    # P does not matter: both minors are nonzero, so no rank is computed
    p = replace(presets.ONE_DISTILLABLE_PARAMS, c=GaussRat(Fraction(3, P), 1))
    with pytest.raises(ZeroDivisionError):
        split_residue(p.c, P, IOTA)
    assert jacobian_rank_psi(p) == psi_rank(p) == 28
    assert exact_rank_calls == []


def test_psi_closed_form_answers_28_at_multiples_of_p(exact_rank_calls):
    # every residue is 0 mod P, which the closed form never looks at
    scaled = CheckerParams.from_dict(
        {ch: z * P for ch, z in presets.ONE_DISTILLABLE_PARAMS.as_dict().items()})
    assert all(split_residue(z, P, IOTA) == (0, 0) for z in scaled.as_dict().values())
    assert jacobian_rank_psi(scaled) == 28
    assert exact_rank_calls == []


# -- the subfamily Jacobian ------------------------------------------------

def test_completion_makes_e20_equal_x_and_e86_equal_y():
    """The entries (2, 0) and (8, 6) of N*rho are the real parameters x and y.

    E20 = d a* + m j* and E86 = e b* + n k*, through the program's own
    ``complete_parameters`` and outer sum, so dE20* = dE20 and dE86* =
    dE86: the first rows mod p hold one duplicate.
    """
    t, x, y = sympy.symbols("t x y", real=True)
    free = sympy.symbols(" ".join(COMPLEX_LETTERS))
    pairs = [(z, sympy.Symbol(f"{z}_bar")) for z in free]
    flip = {**{sympy.conjugate(z): zb for z, zb in pairs},
            **{sympy.conjugate(zb): z for z, zb in pairs}}
    full = {ch: w.xreplace(flip) for ch, w in complete_parameters(t, x, y, *free).items()}
    entries = outer_sum_entries(placed_vectors(full), sympy.Integer(0))
    for (r, c), value in (((2, 0), x), ((8, 6), y)):
        diff = entries[r][c].xreplace(flip) - value
        assert sympy.expand(sympy.numer(sympy.together(diff))) == 0, (r, c)


def _kernel_entries(t, f, p, s, cj):
    """v_f, v_p and v_s of the closed-form kernel vector, generic over the scalar type."""
    return f * cj(p), -f * cj(f), s * cj(p) - t


def test_lambda_kernel_vector_moves_the_odd_rows_by_anti_hermitian_generators():
    """Along dz = v and dz = -i v, each odd row moves as row X and the even letters stay.

    t, x, y are real symbols and each free letter z has an independent
    conjugate symbol z_bar; they go through the program's own
    ``complete_parameters``.  The 16 identities d(row) = row X, over both
    directions, the four odd rows and their two entries, hold as rational
    functions: the numerator of each difference expands to 0.  Both X are
    anti-Hermitian, and no even letter depends on f, p or s, so V V* is
    unchanged to first order on both blocks.
    """
    t, x, y = sympy.symbols("t x y", real=True)
    free = sympy.symbols(" ".join(COMPLEX_LETTERS))
    pairs = [(z, sympy.Symbol(f"{z}_bar")) for z in free]
    to_bar = {sympy.conjugate(z): zb for z, zb in pairs}
    flip = {**to_bar, **{sympy.conjugate(zb): z for z, zb in pairs}}

    def cj(w):
        return sympy.conjugate(w).xreplace(flip)

    full = {ch: w.xreplace(to_bar) for ch, w in complete_parameters(t, x, y, *free).items()}
    f, p, s = (full[ch] for ch in "fps")
    moving = {f, p, s} | {cj(z) for z in (f, p, s)}
    assert all(not full[ch].free_symbols & moving for ch in "abcdejklmn")
    v = dict(zip((f, p, s), _kernel_entries(t, f, p, s, cj)))
    generators = (
        (1, sympy.Matrix([[cj(p) - p, -cj(f)], [f, 0]])),
        (-sympy.I, -sympy.I * sympy.Matrix([[p + cj(p), -cj(f)], [-f, 0]])),
    )
    for unit, X in generators:
        assert X + X.T.applyfunc(cj) == sympy.zeros(2, 2)
        step = {z: unit * vz for z, vz in v.items()}
        step.update({cj(z): cj(dz) for z, dz in step.items()})
        for row in ("gq", "fp", "is", "hr"):
            u, w = (full[ch] for ch in row)
            for k in range(2):
                moved = sum(sympy.diff(u if k == 0 else w, z) * dz for z, dz in step.items())
                diff = moved - (u * X[0, k] + w * X[1, k])
                assert sympy.expand(sympy.numer(sympy.together(diff))) == 0, (row, k, unit)


@pytest.mark.parametrize("strategy", ["default", "sparse", "5-digit", "20-digit"])
def test_lambda_closed_form_kernel_vector_is_in_the_exact_kernel(strategy):
    @generate_only(LAMBDA_EXAMPLES.get(strategy, 4))
    @given(LAMBDA_STRATEGIES[strategy])
    def check(sp):
        _assume_completes(sp)
        v = dict.fromkeys(LAMBDA_SLOT_ORDER, GaussRat(0))
        v.update(zip("fps", _kernel_entries(GaussRat(sp.t), sp.f, sp.p, sp.s, conj)))
        assert v["p"]
        for row in lambda_jacobian(sp):
            assert sum((z * v[ch] for z, ch in zip(row, LAMBDA_SLOT_ORDER)), GaussRat(0)) == 0

    check()


@pytest.mark.parametrize("strategy", ["default", "sparse", "5-digit", "single-nonzero"])
def test_lambda_certified_rank_equals_exact_rank(strategy):
    @generate_only(LAMBDA_EXAMPLES.get(strategy, 4))
    @given(LAMBDA_STRATEGIES[strategy])
    def check(sp):
        _assume_completes(sp)
        assert jacobian_rank_lambda(sp) == lambda_rank(sp)

    check()


def _rows_mod_p(sp):
    residues = counting._residues(counting._lambda_values(sp), P, IOTA)
    assume(residues is not None)
    return [[x % P for x in row] for row in counting._lambda_rows_mod(residues, P)]


def _without_column_p(rows):
    """13-column rows with the column d/dp sliced out, as the rows mod p have it."""
    k = LAMBDA_SLOT_ORDER.index("p")
    return [row[:k] + row[k + 1:] for row in rows]


@pytest.mark.parametrize("strategy", ["default", "sparse", "5-digit"])
def test_lambda_chain_rule_rows_equal_the_modjet_pipeline(strategy):
    """The rows equal those of split jets pushed through the whole outer sum, but column p."""
    @generate_only(LAMBDA_EXAMPLES.get(strategy, 4))
    @given(LAMBDA_STRATEGIES[strategy])
    def check(sp):
        _assume_completes(sp)
        assert _rows_mod_p(sp) == _without_column_p(lambda_rows_mod_p(sp))

    check()


@pytest.mark.parametrize("strategy", sorted(LAMBDA_STRATEGIES))
def test_lambda_rows_mod_p_are_phi_of_the_exact_wirtinger_jacobian(strategy):
    """phi: i -> IOTA of the exact Jacobian, after the (E, E*) row change, but column p.

    ``lambda_jacobian`` has the rows d Re E (and d Im E below the
    diagonal) over d/dt, d/dx, d/dy and d/dz_k; the rows mod p are dE,
    and dE = d Re E + i d Im E and dE* = d Re E - i d Im E below it.
    """
    def phi(z):
        return split_residue(z, P, IOTA)[0]

    @generate_only(LAMBDA_EXAMPLES.get(strategy, 4))
    @given(LAMBDA_STRATEGIES[strategy])
    def check(sp):
        _assume_completes(sp)
        exact = lambda_jacobian(sp)
        rows = [[phi(z) for z in row] for row in exact[:9]]
        for re_row, im_row in zip(exact[9::2], exact[10::2]):
            rows.append([phi(x + GaussRat(0, 1) * y) for x, y in zip(re_row, im_row)])
            rows.append([phi(x - GaussRat(0, 1) * y) for x, y in zip(re_row, im_row)])
        assert _rows_mod_p(sp) == _without_column_p(rows)

    check()


def _one_prime_certifies(strategy, walked, exact_rank_calls):
    @generate_only(LAMBDA_EXAMPLES.get(strategy, 4))
    @given(LAMBDA_STRATEGIES[strategy])
    def check(sp):
        _assume_completes(sp)
        walked.clear()
        assert jacobian_rank_lambda(sp) == 12
        assert walked == [P]

    check()
    assert exact_rank_calls == []


def test_lambda_modular_rank_never_claims_a_wrong_rank_at_20_digits(exact_rank_calls,
                                                                   monkeypatch):
    # The kernel vector at 20 digits has entries of about 900 bits, but it
    # is known in closed form: one prime proves the rank.
    _one_prime_certifies("20-digit", _walked_primes(monkeypatch), exact_rank_calls)


def test_lambda_rank_is_certified_by_one_prime_at_5_digits(exact_rank_calls, monkeypatch):
    _one_prime_certifies("5-digit", _walked_primes(monkeypatch), exact_rank_calls)


def test_lambda_rank_is_certified_at_sampled_points(exact_rank_calls, monkeypatch):
    walked = _walked_primes(monkeypatch)
    for idx in range(10):
        sp, _ = sampling.random_subfamily_params(sampling.rng_for(66, idx))
        walked.clear()
        assert jacobian_rank_lambda(sp) == 12
        assert walked == [P]
    assert exact_rank_calls == []


def _built_and_ranked(monkeypatch):
    """The prime of each row mod p ``counting`` takes, and (p, row count) of each ``rank_mod_p``."""
    built, ranked = [], []
    rows_mod, rank_mod = counting._lambda_rows_mod, counting.rank_mod_p

    def rows_spy(residues, p):
        for row in rows_mod(residues, p):
            built.append(p)
            yield row

    def rank_spy(rows, p):
        ranked.append((p, len(rows)))
        return rank_mod(rows, p)

    monkeypatch.setattr(counting, "_lambda_rows_mod", rows_spy)
    monkeypatch.setattr(counting, "rank_mod_p", rank_spy)
    return built, ranked


def test_lambda_rank_is_certified_by_the_first_13_rows(exact_rank_calls, monkeypatch):
    built, ranked = _built_and_ranked(monkeypatch)
    points = [presets.SUBFAMILY_RANK_POINT] + [
        sampling.random_subfamily_params(sampling.rng_for(66, idx))[0] for idx in range(10)]
    for sp in points:
        built.clear()
        ranked.clear()
        assert jacobian_rank_lambda(sp) == 12
        assert len(built) <= 13 and ranked == [(P, 13)]
    assert exact_rank_calls == []


def test_lambda_rank_ranks_all_41_rows_when_the_first_13_fall_short(exact_rank_calls,
                                                                   monkeypatch):
    # Only a, b, f, k and s are nonzero, and the first 13 rows have rank 6.
    one, zero = GaussRat(1), GaussRat(0)
    sp = SubfamilyParams(t=Fraction(0), x=Fraction(0), y=Fraction(0), a=one, b=one, c=zero,
                         f=one, j=zero, k=one, l=zero, m=zero, p=zero, s=one)
    built, ranked = _built_and_ranked(monkeypatch)
    assert jacobian_rank_lambda(sp) == lambda_rank(sp) == 12
    assert ranked == [(P, 13), (P, 41)] and len(built) == 41
    assert exact_rank_calls == []


@pytest.mark.parametrize("change", [
    {"c": GaussRat(Fraction(2, P), 1)},  # P divides a denominator
    {"t": Fraction(P)},  # P divides a nonzero parameter
    {"a": GaussRat(IOTA, -1)},  # a != 0 but phi(a) = IOTA - IOTA = 0 mod P
])
def test_lambda_rank_falls_back_when_the_modular_rank_is_no_proof(change, exact_rank_calls,
                                                                  monkeypatch):
    # P is skipped and the next prime certifies the rank.
    walked = _walked_primes(monkeypatch)
    sp = replace(presets.SUBFAMILY_RANK_POINT, **change)
    assert jacobian_rank_lambda(sp) == lambda_rank(sp) == 12
    assert exact_rank_calls == []
    assert walked == [P2]


@pytest.mark.parametrize("offset", [GaussRat(IOTA, -1), GaussRat(P)],
                         ids=["one-component", "both-components"])
def test_lambda_rank_skips_a_prime_where_a_completion_divisor_vanishes(offset, exact_rank_calls,
                                                                       monkeypatch):
    # k = bj/a + offset makes ak - bj = a * offset, which is nonzero but 0
    # mod P in one component (the completion divides by it) or in both (the
    # completion tests it); P is walked, skipped, and the next prime decides.
    walked = _walked_primes(monkeypatch)
    point = presets.SUBFAMILY_RANK_POINT
    sp = replace(point, k=point.b * point.j / point.a + offset)
    assert counting._residues(counting._lambda_values(sp), P, IOTA) is not None
    assert jacobian_rank_lambda(sp) == lambda_rank(sp) == 12
    assert exact_rank_calls == []
    assert walked == [P, P2]


def test_lambda_rank_falls_back_to_exact_elimination_when_the_primes_run_out(
        monkeypatch, exact_rank_calls):
    monkeypatch.setattr(counting, "primes", lambda: iter([(P, IOTA)]))
    sp = replace(presets.SUBFAMILY_RANK_POINT, c=GaussRat(Fraction(2, P), 1))
    assert jacobian_rank_lambda(sp) == 12
    assert exact_rank_calls == [(41, 13)]


def _shifted_modular_rank(monkeypatch, shift):
    monkeypatch.setattr(counting, "rank_mod_p", lambda rows, p: rank_mod_p(rows, p) + shift)


def test_lambda_rank_falls_back_when_the_modular_rank_is_low(monkeypatch, exact_rank_calls):
    # No generic point has turned up where the rank mod p is below 12, so
    # one is simulated; two usable primes below 12 end the walk.
    walked = _walked_primes(monkeypatch)
    _shifted_modular_rank(monkeypatch, -1)
    assert jacobian_rank_lambda(presets.SUBFAMILY_RANK_POINT) == 12
    assert exact_rank_calls == [(41, 13)]
    assert walked == [P, P2]


def test_lambda_rank_never_trusts_a_modular_rank_of_13(monkeypatch, exact_rank_calls):
    # The closed-form kernel vector rules 13 out, so a rank of 13 mod p
    # proves nothing and the exact rank decides.
    walked = _walked_primes(monkeypatch)
    _shifted_modular_rank(monkeypatch, 1)
    assert jacobian_rank_lambda(presets.SUBFAMILY_RANK_POINT) == 12
    assert exact_rank_calls == [(41, 13)]
    assert walked == [P, P2]


def test_lambda_rank_at_singular_point_still_raises(monkeypatch):
    walked = _walked_primes(monkeypatch)
    with pytest.raises(SingularParameterError):
        jacobian_rank_lambda(replace(presets.SUBFAMILY_RANK_POINT, a=GaussRat(0)))
    assert walked == [P]


# -- the modular helpers ---------------------------------------------------

def test_first_prime_is_a_constant_split_prime():
    assert P == 2**30 - 35 and sympy.isprime(P) and P % 4 == 1
    # the largest such prime below 2^30
    assert not any(sympy.isprime(n) for n in range(P + 4, 2**30, 4))
    assert IOTA * IOTA % P == P - 1
    # iota = c^((p - 1)/4) for the least non-residue c, as ``primes`` finds later pairs
    assert pow(2, (P - 1) // 2, P) == P - 1
    assert IOTA == pow(2, (P - 1) // 4, P)


def test_prime_source_is_descending_primes_1_mod_4_below_2_30():
    pairs = list(islice(primes(), counting.PRIME_BUDGET + 6))
    walked = [p for p, _ in pairs]
    assert pairs[0] == (P, IOTA)
    assert all(sympy.isprime(p) and p % 4 == 1 and iota * iota % p == p - 1
               for p, iota in pairs)
    # consecutive: no prime p = 1 mod 4 is skipped
    assert not any(sympy.isprime(n) for hi, lo in zip(walked, walked[1:])
                   for n in range(lo + 4, hi, 4))
    assert walked == sorted(set(walked), reverse=True) and walked[0] < 2**30
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base up to 31 (only 37
    # exposes it), and two plain composites
    for n in (3215031751, 3825123056546413051, 2**61 - 3, (2**61 - 1) * 1000003):
        assert not is_prime(n) and not sympy.isprime(n)
    assert all(is_prime(n) == sympy.isprime(n) for n in range(P - 400, P + 1))


def test_importing_the_cli_generates_no_prime():
    src = Path(counting.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import checkerboard.cli, checkerboard.matrices as m; print(len(m._PRIMES))"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "1"


@given(small_gauss, small_gauss)
def test_split_residue_is_the_ring_map_sending_i_to_iota(z, w):
    def phi(u):
        return split_residue(u, P, IOTA)

    assert phi(GaussRat(0, 1)) == (IOTA, P - IOTA)
    assert phi(z)[1] == phi(z.conj())[0]
    assert phi(z + w)[0] == (phi(z)[0] + phi(w)[0]) % P
    assert phi(z * w)[0] == phi(z)[0] * phi(w)[0] % P


def test_split_residue_reduces_over_the_denominator():
    third = pow(3, -1, P)
    assert split_residue(GaussRat(Fraction(P + 5), Fraction(-1, 3)), P, IOTA) == (
        (5 - IOTA * third) % P, (5 + IOTA * third) % P)
    with pytest.raises(ZeroDivisionError):
        split_residue(GaussRat(Fraction(1, 2 * P)), P, IOTA)


def test_complex_rank_mod_p():
    def phi(z):
        return split_residue(z, P, IOTA)[0]

    # rows of rank 2 times 1 + 2i
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank_mod_p([[phi(GaussRat(x, 2 * x)) for x in row] for row in rows], P) == 2
    # a zero column, and -1 + i = i (1 + i)
    assert rank_mod_p([[0, phi(GaussRat(1, 1))], [0, phi(GaussRat(-1, 1))]], P) == 1
    assert rank_mod_p([], P) == 0
    # phi only lowers a rank: (1, i) and (1, IOTA) are independent, their images are not
    assert rank(GMat.from_rows([[1, GaussRat(0, 1)], [1, IOTA]])) == 2
    assert rank_mod_p([[1, phi(GaussRat(0, 1))], [1, IOTA]], P) == 1


_small_ints = st.integers(-3, 3)


@generate_only(60)
@given(st.integers(0, 4), st.integers(1, 6), st.integers(1, 6), st.data())
def test_rank_mod_p_equals_the_exact_rank_of_small_integer_matrices(inner, n, m, data):
    # A product of n x inner and inner x m factors has rank at most inner.
    # Its entries are at most 36 in size, so by Hadamard's bound every
    # minor of at most 4 rows is below 72^4 < 3 * 10^7 < P: a nonzero
    # minor of the rank's size stays nonzero mod P.
    a = data.draw(st.lists(st.lists(_small_ints, min_size=inner, max_size=inner),
                           min_size=n, max_size=n))
    b = data.draw(st.lists(st.lists(_small_ints, min_size=m, max_size=m),
                           min_size=inner, max_size=inner))
    rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] if b else [0] * m
            for row in a]
    assert rank_mod_p(rows, P) == rank(GMat.from_rows(rows)) <= inner
