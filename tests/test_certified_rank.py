"""Certified Jacobian ranks: the closed forms, the proofs mod p and the exact fallback.

The reference is the jet-based construction in ``jet_reference``.  Every
certified rank must equal the exact rank it computes, the subfamily's
rows mod the first prime P must equal its split-jet rows and the image
of its exact Jacobian, the full-family rank is 28 exactly when both
leading block minors are nonzero, the subfamily's closed-form kernel
vector lies in the kernel of its exact Jacobian, its closed-form 12x12
minor has the proved block pattern, a subfamily point walks the primes
only where that minor is no proof (am = jd), and a point reaches the
exact ``rank`` only when neither closed form nor the first usable prime
of the budget gives a proof.

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
import checkerboard.matrices as matrices
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
from checkerboard.matrices import (
    GMat,
    is_prime,
    primes,
    rank,
    rank_mod_p,
    split_prime_rank,
    split_residue,
)
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
    lambda_coordinate_jets,
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


def _am_equals_jd(sp):
    """``sp`` with m = x j/(|a|^2 + |j|^2), so a*(am - jd) = m(|a|^2 + |j|^2) - x j is 0.

    The closed-form minor of ``jacobian_rank_lambda`` is then no proof, and
    the rank takes the walk over the primes.
    """
    a, j = sp.a, sp.j
    return replace(sp, m=j * sp.x / (a * a.conj() + j * j.conj()))


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
    "am=jd": subfamily_points(small_fractions, small_gauss).map(_am_equals_jd),
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


def _no_prime_walk(monkeypatch):
    """Makes any walk over the primes by ``counting`` fail the test."""
    def walk(values, rank_at):
        raise AssertionError("the closed-form minor should have proved 12")

    monkeypatch.setattr(counting, "split_prime_rank", walk)


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

def _symbolic_entries():
    """The completed letters and the entries of N*rho over sympy symbols.

    t, x, y are real symbols and each free letter z has an independent
    conjugate symbol z_bar; they go through the program's own
    ``complete_parameters`` and outer sum.  Returns the real symbols, the
    (z, z_bar) pairs, the completed letters, the entries, and ``cj``, the
    conjugate in those symbols.
    """
    t, x, y = sympy.symbols("t x y", real=True)
    free = sympy.symbols(" ".join(COMPLEX_LETTERS))
    pairs = [(z, sympy.Symbol(f"{z}_bar")) for z in free]
    flip = {**{sympy.conjugate(z): zb for z, zb in pairs},
            **{sympy.conjugate(zb): z for z, zb in pairs}}

    def cj(w):
        return sympy.conjugate(w).xreplace(flip)

    full = {ch: w.xreplace(flip) for ch, w in complete_parameters(t, x, y, *free).items()}
    entries = [[w.xreplace(flip) for w in row]
               for row in outer_sum_entries(placed_vectors(full), sympy.Integer(0))]
    return (t, x, y), pairs, full, entries, cj


def _is_zero(w):
    return sympy.expand(sympy.numer(sympy.together(w))) == 0


def test_completion_makes_e20_equal_x_and_e86_equal_y():
    """The entries (5, 3), (2, 0) and (8, 6) of N*rho are the real parameters t, x and y.

    E53 = i f* + s p*, E20 = d a* + m j* and E86 = e b* + n k*, through
    the program's own ``complete_parameters`` and outer sum, so their rows
    are the unit rows of t, x and y in the minor of ``jacobian_rank_lambda``.
    """
    (t, x, y), _, _, entries, _ = _symbolic_entries()
    for (r, c), value in (((5, 3), t), ((2, 0), x), ((8, 6), y)):
        assert _is_zero(entries[r][c] - value), (r, c)


# The rows and columns of the closed-form minor of ``jacobian_rank_lambda``:
# (r, c, conjugated) for the row dE_rc or dE_rc*, and the column letters,
# each in three blocks.
_MINOR_ROWS = (((0, 0, False), (6, 0, True), (6, 0, False), (6, 6, False), (4, 0, False),
                (6, 4, True), (3, 3, False)),
               ((5, 3, False), (2, 0, False), (8, 6, False)),
               ((5, 5, False), (2, 2, False)))
_MINOR_COLUMNS = ("ajbkclf", "txy", "sm")


def test_lambda_minor_is_block_lower_triangular_symbolic():
    """The 12x12 minor has blocks A, I and D on its diagonal and zeros above them.

    Over the independent symbols of ``_symbolic_entries``, the rows dE (or
    dE*) are the holomorphic derivatives of E (or of E*) along the columns.
    The A rows vanish on t, x, y, s and m and det A = f*(ak - bj)*^3; the
    rows of t, x and y are their unit rows; and D = diag(((fs - ip)/f)*,
    ((am - jd)/a)*).  The two identities the closed form reads,
    f*(fs - ip) = s(|f|^2 + |p|^2) - t p and a*(am - jd) = m(|a|^2 + |j|^2)
    - x j, hold with i and d from the completion.
    """
    (t, x, y), pairs, full, entries, cj = _symbolic_entries()
    var = {**dict(zip("txy", (t, x, y))), **{str(z): z for z, _ in pairs}}
    bar = {str(z): zb for z, zb in pairs}
    columns = [var[ch] for block in _MINOR_COLUMNS for ch in block]

    def row(r, c, conjugated):
        e = cj(entries[r][c]) if conjugated else entries[r][c]
        return [sympy.diff(e, z) for z in columns]

    a_rows, unit_rows, d_rows = ([row(*pick) for pick in block] for block in _MINOR_ROWS)
    assert all(_is_zero(w) for r in a_rows for w in r[7:])
    for k, r in enumerate(unit_rows):
        assert all(_is_zero(w - int(k + 7 == n)) for n, w in enumerate(r)), k
    fs_ip, am_jd = (full["f"] * full["s"] - full["i"] * full["p"],
                    full["a"] * full["m"] - full["j"] * full["d"])
    det_a = sympy.Matrix([r[:7] for r in a_rows]).det()
    assert _is_zero(det_a - bar["f"] * cj(var["a"] * var["k"] - var["b"] * var["j"]) ** 3)
    expected_d = ((cj(fs_ip / full["f"]), 0), (0, cj(am_jd / full["a"])))
    for r, expected in zip(d_rows, expected_d):
        assert all(_is_zero(w - v) for w, v in zip(r[10:], expected))

    def norm2(*letters):
        return sum(full[ch] * cj(full[ch]) for ch in letters)

    assert _is_zero(cj(full["f"]) * fs_ip - (full["s"] * norm2("f", "p") - t * full["p"]))
    assert _is_zero(cj(full["a"]) * am_jd - (full["m"] * norm2("a", "j") - x * full["j"]))


def _kernel_entries(t, f, p, s, cj):
    """v_f, v_p and v_s of the closed-form kernel vector, generic over the scalar type."""
    return f * cj(p), -f * cj(f), s * cj(p) - t


def test_lambda_kernel_vector_moves_the_odd_rows_by_anti_hermitian_generators():
    """Along dz = v and dz = -i v, each odd row moves as row X and the even letters stay.

    The completed letters are those of ``_symbolic_entries``.  The 16
    identities d(row) = row X, over both directions, the four odd rows and
    their two entries, hold as rational functions: the numerator of each
    difference expands to 0.  Both X are anti-Hermitian, and no even
    letter depends on f, p or s, so V V* is unchanged to first order on
    both blocks.
    """
    (t, _, _), _, full, _, cj = _symbolic_entries()
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


@pytest.mark.parametrize("strategy", ["default", "sparse", "5-digit", "single-nonzero", "am=jd"])
def test_lambda_certified_rank_equals_exact_rank(strategy):
    @generate_only(LAMBDA_EXAMPLES.get(strategy, 4))
    @given(LAMBDA_STRATEGIES[strategy])
    def check(sp):
        _assume_completes(sp)
        assert jacobian_rank_lambda(sp) == lambda_rank(sp)

    check()


def _residues_at_p(sp):
    """The split residues of the subfamily's values at P, or None where P is skipped:
    it divides a denominator, or phi sends a nonzero value or its conjugate to 0."""
    values = counting._lambda_values(sp)
    if any(not z.d % P for z in values):
        return None
    residues = [split_residue(z, P, IOTA) for z in values]
    return None if any(z and not (u and w) for z, (u, w) in zip(values, residues)) else residues


def _rows_mod_p(sp):
    residues = _residues_at_p(sp)
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
    """The exact rows are the exact Jacobian after the (E, E*) row change, and mod p phi of them.

    ``lambda_jacobian`` has the rows d Re E (and d Im E below the
    diagonal) over d/dt, d/dx, d/dy and d/dz_k; the rows of
    ``_lambda_exact_rows`` are dE, and dE = d Re E + i d Im E and
    dE* = d Re E - i d Im E below it.  The rows mod p are phi: i -> IOTA
    of those, but column p.
    """
    def phi(z):
        return split_residue(z, P, IOTA)[0]

    @generate_only(LAMBDA_EXAMPLES.get(strategy, 4))
    @given(LAMBDA_STRATEGIES[strategy])
    def check(sp):
        _assume_completes(sp)
        exact = lambda_jacobian(sp)
        rows = exact[:9]
        for re_row, im_row in zip(exact[9::2], exact[10::2]):
            rows.append([x + GaussRat(0, 1) * y for x, y in zip(re_row, im_row)])
            rows.append([x - GaussRat(0, 1) * y for x, y in zip(re_row, im_row)])
        exact_rows = list(counting._lambda_exact_rows(sp))
        assert exact_rows == rows
        assert _rows_mod_p(sp) == _without_column_p([[phi(z) for z in row] for row in exact_rows])

    check()


@pytest.mark.parametrize("strategy", sorted(LAMBDA_STRATEGIES))
def test_lambda_real_rows_are_the_real_slot_jacobian_up_to_one_factor_per_row(strategy):
    """Each realified row is a positive multiple of the reference row, with t, x and y doubled.

    The reference rows are d Re E (and d Im E below the diagonal) over the
    23 real slots; before its lift, a row's factor is 1/2 on the diagonal
    and 1 below it.  Rank equality cannot catch a wrong factor, since
    every point gives 15.
    """
    @generate_only(LAMBDA_EXAMPLES.get(strategy, 4))
    @given(LAMBDA_STRATEGIES[strategy])
    def check(sp):
        _assume_completes(sp)
        rows = counting._lambda_real_rows(sp)
        jets = lambda_coordinate_jets(sp)
        assert not any(g.im for jet in jets for g in jet.grad)
        reference = [[2 * g.re if k < 3 else g.re for k, g in enumerate(jet.grad)]
                     for jet in jets]
        assert len(rows) == len(reference) == 41
        for row, ref in zip(rows, reference):
            k = next((k for k, x in enumerate(ref) if x), None)
            if k is None:
                assert not any(row)
                continue
            factor = Fraction(row[k]) / ref[k]
            assert factor > 0 and row == [factor * x for x in ref]

    check()


@pytest.mark.parametrize("strategy", ["default", "5-digit", "20-digit"])
def test_lambda_closed_form_minor_certifies_12_without_a_prime(strategy, exact_rank_calls,
                                                              monkeypatch):
    _no_prime_walk(monkeypatch)

    @generate_only(LAMBDA_EXAMPLES.get(strategy, 4))
    @given(LAMBDA_STRATEGIES[strategy])
    def check(sp):
        _assume_completes(sp)
        assert jacobian_rank_lambda(sp) == 12

    check()
    assert exact_rank_calls == []


def _sampled(count):
    """The first ``count`` subfamily samples of seed 66."""
    return [sampling.random_subfamily_params(sampling.rng_for(66, idx))[0] for idx in range(count)]


# Where the closed-form minor is no proof: the reference point moved to am = jd.
_WALK_POINT = _am_equals_jd(presets.SUBFAMILY_RANK_POINT)


def test_lambda_closed_form_minor_certifies_sampled_points(exact_rank_calls, monkeypatch):
    _no_prime_walk(monkeypatch)
    points = [presets.SUBFAMILY_RANK_POINT] + _sampled(40)
    assert all(jacobian_rank_lambda(sp) == 12 for sp in points)
    assert exact_rank_calls == []


def _one_prime_certifies(strategy, walked, exact_rank_calls):
    @generate_only(LAMBDA_EXAMPLES.get(strategy, 4))
    @given(LAMBDA_STRATEGIES[strategy].map(_am_equals_jd))
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
    # is known in closed form: one prime proves the rank where am = jd.
    _one_prime_certifies("20-digit", _walked_primes(monkeypatch), exact_rank_calls)


def test_lambda_rank_is_certified_by_one_prime_at_5_digits(exact_rank_calls, monkeypatch):
    _one_prime_certifies("5-digit", _walked_primes(monkeypatch), exact_rank_calls)


def test_lambda_rank_is_certified_at_sampled_points(exact_rank_calls, monkeypatch):
    # Sampled points moved to am = jd, where the closed-form minor is no proof.
    walked = _walked_primes(monkeypatch)
    for sp in map(_am_equals_jd, _sampled(40)):
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


def test_lambda_rank_ranks_all_41_rows_when_the_first_13_fall_short(exact_rank_calls,
                                                                   monkeypatch):
    # Where am = jd the first 13 rows mod P (the diagonal, dE20, dE20*, dE31
    # and dE31*) have rank below 12, so the 41 rows are built and ranked once.
    # The first point has only a, b, f, k and s nonzero, so m = j = 0, am = jd
    # and the first 13 rows have rank 6.
    one, zero = GaussRat(1), GaussRat(0)
    sparse = SubfamilyParams(t=Fraction(0), x=Fraction(0), y=Fraction(0), a=one, b=one, c=zero,
                             f=one, j=zero, k=one, l=zero, m=zero, p=zero, s=one)
    assert lambda_rank(sparse) == 12
    assert rank_mod_p(list(islice(counting._lambda_rows_mod(_residues_at_p(sparse), P), 13)),
                      P) == 6
    points = [sparse, _WALK_POINT] + [_am_equals_jd(sp) for sp in _sampled(10)]
    for sp in points:
        head = islice(counting._lambda_rows_mod(_residues_at_p(sp), P), 13)
        assert rank_mod_p(list(head), P) < 12
    built, ranked = _built_and_ranked(monkeypatch)
    for sp in points:
        built.clear()
        ranked.clear()
        assert jacobian_rank_lambda(sp) == 12
        assert ranked == [(P, 41)] and built == [P] * 41
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
    sp = _am_equals_jd(replace(presets.SUBFAMILY_RANK_POINT, **change))
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
    point = _WALK_POINT
    sp = replace(point, k=point.b * point.j / point.a + offset)
    assert _residues_at_p(sp) is not None
    assert jacobian_rank_lambda(sp) == lambda_rank(sp) == 12
    assert exact_rank_calls == []
    assert walked == [P, P2]


@pytest.mark.parametrize("strategy", ["default", "sparse", "5-digit"])
def test_lambda_exact_fallback_equals_the_exact_rank(strategy, monkeypatch, exact_rank_calls):
    monkeypatch.setattr(matrices, "primes", lambda: iter([]))

    @generate_only(LAMBDA_EXAMPLES.get(strategy, 4))
    @given(LAMBDA_STRATEGIES[strategy].map(_am_equals_jd))
    def check(sp):
        _assume_completes(sp)
        exact_rank_calls.clear()
        assert jacobian_rank_lambda(sp) == lambda_rank(sp)
        assert exact_rank_calls == [(41, 13)]

    check()


def test_lambda_rank_falls_back_to_exact_elimination_when_the_primes_run_out(
        monkeypatch, exact_rank_calls):
    monkeypatch.setattr(matrices, "primes", lambda: iter([(P, IOTA)]))
    sp = replace(_WALK_POINT, c=GaussRat(Fraction(2, P), 1))
    assert jacobian_rank_lambda(sp) == 12
    assert exact_rank_calls == [(41, 13)]


def _shifted_modular_rank(monkeypatch, shift):
    monkeypatch.setattr(counting, "rank_mod_p", lambda rows, p: rank_mod_p(rows, p) + shift)


def test_lambda_rank_falls_back_when_the_modular_rank_is_low(monkeypatch, exact_rank_calls):
    # No generic point has turned up where the rank mod p is below 12, so
    # one is simulated; the first usable prime decides, so the walk ends there.
    walked = _walked_primes(monkeypatch)
    _shifted_modular_rank(monkeypatch, -1)
    assert jacobian_rank_lambda(_WALK_POINT) == 12
    assert exact_rank_calls == [(41, 13)]
    assert walked == [P]


def test_lambda_rank_never_trusts_a_modular_rank_of_13(monkeypatch, exact_rank_calls):
    # The closed-form kernel vector rules 13 out, so a rank of 13 mod p
    # proves nothing and the exact rank decides.
    walked = _walked_primes(monkeypatch)
    _shifted_modular_rank(monkeypatch, 1)
    assert jacobian_rank_lambda(_WALK_POINT) == 12
    assert exact_rank_calls == [(41, 13)]
    assert walked == [P]


def test_lambda_rank_at_singular_point_still_raises(monkeypatch):
    walked = _walked_primes(monkeypatch)
    with pytest.raises(SingularParameterError):
        jacobian_rank_lambda(replace(presets.SUBFAMILY_RANK_POINT, a=GaussRat(0)))
    assert walked == [P]


def _singular(sp, name):
    """``sp`` moved so that the completion's test of ``name`` fails, and only that one."""
    if name in "abf":
        return replace(sp, **{name: GaussRat(0)})
    if name == "fs-ip":  # f*(fs - ip) = s(|f|^2 + |p|^2) - t p
        return replace(sp, s=sp.p * sp.t / (sp.f * sp.f.conj() + sp.p * sp.p.conj()))
    return replace(sp, k=sp.b * sp.j / sp.a)  # ak - bj


@pytest.mark.parametrize("name", ["a", "b", "f", "fs-ip", "ak-bj"])
def test_lambda_rank_raises_at_each_singular_case(name):
    for sp in [presets.SUBFAMILY_RANK_POINT] + _sampled(5):
        with pytest.raises(SingularParameterError) as raised:
            jacobian_rank_lambda(_singular(sp, name))
        assert raised.value.denominator == name


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
    pairs = list(islice(primes(), matrices.PRIME_BUDGET + 6))
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


def test_split_prime_rank_skips_primes_in_order_and_returns_the_first_rank(monkeypatch):
    # P divides a denominator, phi at P2 sends IOTA2 - i to 0, phi at P3
    # sends the conjugate of IOTA3 + i to 0, and the builder raises
    # ZeroDivisionError at P4: P5 decides.
    pairs = list(islice(primes(), 5))
    (_, iota2), (_, iota3), (p4, _), (p5, iota5) = pairs[1:]
    values = [GaussRat(Fraction(1, P)), GaussRat(iota2, -1), GaussRat(iota3, 1), GaussRat(0)]
    seen = []

    def rank_at(residues, p):
        seen.append(p)
        if p == p4:
            raise ZeroDivisionError
        assert residues == [split_residue(z, p, iota5) for z in values]
        return 7

    monkeypatch.setattr(matrices, "primes", lambda: iter(pairs))
    assert split_prime_rank(values, rank_at) == 7
    assert seen == [p4, p5]
    monkeypatch.setattr(matrices, "primes", lambda: iter(pairs[:4]))
    seen.clear()
    assert split_prime_rank(values, rank_at) is None
    assert seen == [p4]


def test_split_prime_rank_passes_any_other_exception_through():
    def rank_at(residues, p):
        raise SingularParameterError("a")

    with pytest.raises(SingularParameterError):
        split_prime_rank([GaussRat(1)], rank_at)


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
