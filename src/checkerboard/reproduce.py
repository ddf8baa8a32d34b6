"""Golden reference checks: every frozen reference value, re-derived and compared.

Each item recomputes one claim from scratch and compares against the
frozen constants in ``GOLDEN``.  The items double as the acceptance suite
(tests/test_acceptance.py) and as the CLI ``reproduce`` command.  All
randomized items use fixed seeds, so reports are byte-identical between
runs.

Every item reads a state as ``classify`` does, as its 4x4 and 5x5 block
pair: the golden matrices are compared against blocks/scale with zeros
off the blocks, determinants are products of the two blocks' (``det``),
inertias come from ``blocks_inertia``, and ranks are sums over the two
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import presets, sampling
from .charpoly import Inertia, blocks_inertia
from .counting import jacobian_rank_lambda, jacobian_rank_psi
from .criteria import (
    range_has_no_product_vector,
    reduction_criterion,
    schmidt_rank,
    witness_expectation,
)
from .family import (
    BLOCK_POSITIONS,
    PARAM_LETTERS,
    VECTOR_DEGREES,
    CheckerParams,
    build_state,
    build_vectors,
    factor_over,
    partial_transpose_blocks,
    placed_vectors,
    prime_block_null_basis,
    theorem1_from_factors,
    theorem1_product,
    theorem_factors,
)
from .gaussian import ZERO, GaussInt, GaussRat
from .matrices import GMat, ZMat, det, rank
from .subfamily import bruss_peres_embed, derive_full_params, theorem2_from_factors

GOLDEN = {
    "first_normalizer": Fraction(17),
    "second_normalizer": Fraction(21),
    "first_pt_det": Fraction(448, 17 ** 9),
    "second_pt_det": Fraction(418, 3 ** 7 * 7 ** 9),
    "pt_inertia": Inertia(2, 0, 7),
    "witness_value": Fraction(-5, 21),
    "witness_schmidt_rank": 2,
    "state_rank": 4,
    "psi_rank": 28,
    "lambda_rank": 12,
}

SEED_SUBFAMILY = 1105
SEED_EMBED = 1107
SEED_STRUCTURAL = 1109
SEED_RANGE = 1111


@dataclass(frozen=True)
class ItemResult:
    ok: bool
    expected: str
    computed: str


@dataclass(frozen=True)
class ReproItem:
    number: int
    title: str
    run: Callable[[], ItemResult]


def _result(ok, expected, computed) -> ItemResult:
    return ItemResult(bool(ok), str(expected), str(computed))


def _first_state():
    return build_state(presets.REDUCTION_VIOLATING_PARAMS)


def _second_state():
    return build_state(presets.ONE_DISTILLABLE_PARAMS)


# (block, index in the block) of each basis position.
_BLOCK_OF = {pos: (b, x) for b, block in enumerate(BLOCK_POSITIONS) for x, pos in enumerate(block)}


def _block_mats(blocks, mat, scalar) -> tuple:
    """The two blocks of a block pair as ``mat``s with entries ``scalar(re, im)``."""
    return tuple(mat.from_rows([[scalar(*z) for z in row] for row in blk]) for blk in blocks)


def _item_golden_matrix(params, matrix, normalizer) -> ItemResult:
    # N*rho is blocks/scale on the block positions and zero off them.
    state = build_state(params)
    mismatches = 0
    for r in range(9):
        for c in range(9):
            (b, x), (b2, y) = _BLOCK_OF[r], _BLOCK_OF[c]
            entry = GaussInt(*state.blocks[b][x][y]).over(state.scale) if b == b2 else ZERO
            mismatches += entry != matrix[r, c]
    ok = not mismatches and state.normalizer == normalizer
    return _result(
        ok,
        f"all 81 entries exact, N={normalizer}",
        f"{81 - mismatches}/81 entries match, N={state.normalizer}",
    )


def item01() -> ItemResult:
    return _item_golden_matrix(
        presets.REDUCTION_VIOLATING_PARAMS,
        presets.REDUCTION_VIOLATING_MATRIX,
        GOLDEN["first_normalizer"],
    )


def item02() -> ItemResult:
    return _item_golden_matrix(
        presets.ONE_DISTILLABLE_PARAMS,
        presets.ONE_DISTILLABLE_MATRIX,
        GOLDEN["second_normalizer"],
    )


def _item_pt_det_inertia(state, det_key) -> ItemResult:
    # rho^Gamma = G/trace for the blocks G of D^2 N rho^Gamma and the trace of
    # D^2 N rho, so det(rho^Gamma) = det(G_odd) det(G_even)/trace^9.
    odd, even = _block_mats(state.gamma, ZMat, GaussInt)
    d = Fraction(det(odd) * det(even), state.trace ** 9)
    inert = blocks_inertia(state.gamma)
    want_det = GOLDEN[det_key]
    want_inert = GOLDEN["pt_inertia"]
    ok = d == want_det and inert == want_inert
    return _result(
        ok,
        f"det={want_det}, inertia=({want_inert.n_neg},{want_inert.n_zero},{want_inert.n_pos})",
        f"det={d}, inertia=({inert.n_neg},{inert.n_zero},{inert.n_pos})",
    )


def item03() -> ItemResult:
    return _item_pt_det_inertia(_first_state(), "first_pt_det")


def item04() -> ItemResult:
    return _item_pt_det_inertia(_second_state(), "second_pt_det")


def item05() -> ItemResult:
    state = _second_state()
    w = presets.ONE_DISTILLABLE_WITNESS
    value = witness_expectation(state, w)
    srank = schmidt_rank(w)
    ok = (
        not value.im
        and value.re == GOLDEN["witness_value"]
        and srank == GOLDEN["witness_schmidt_rank"]
    )
    return _result(
        ok,
        f"value={GOLDEN['witness_value']}, schmidt_rank={GOLDEN['witness_schmidt_rank']}",
        f"value={value}, schmidt_rank={srank}",
    )


def item06() -> ItemResult:
    first = reduction_criterion(_first_state())
    second = reduction_criterion(_second_state())
    ok = first is True and second is False
    return _result(
        ok,
        "first example violated, second satisfied",
        f"first violated={first}, second violated={second}",
    )


def item07() -> ItemResult:
    r1, r2 = (sum(map(rank, _block_mats(state.blocks, GMat, GaussRat)))
              for state in (_first_state(), _second_state()))
    t1 = bool(theorem1_product(presets.REDUCTION_VIOLATING_PARAMS))
    t2 = bool(theorem1_product(presets.ONE_DISTILLABLE_PARAMS))
    want = GOLDEN["state_rank"]
    ok = r1 == want and r2 == want and t1 and t2
    return _result(
        ok,
        f"rank {want} and generic for both examples",
        f"ranks=({r1},{r2}), generic=({t1},{t2})",
    )


def item08() -> ItemResult:
    rk = jacobian_rank_psi(presets.ONE_DISTILLABLE_PARAMS)
    ok = rk == GOLDEN["psi_rank"]
    return _result(ok, f"rank {GOLDEN['psi_rank']}", f"rank {rk}")


def item09() -> ItemResult:
    rk = jacobian_rank_lambda(presets.SUBFAMILY_RANK_POINT)
    ok = rk == GOLDEN["lambda_rank"]
    return _result(ok, f"rank {GOLDEN['lambda_rank']}", f"rank {rk}")


def item10() -> ItemResult:
    failures = []
    for idx in range(100):
        rng = sampling.rng_for(SEED_SUBFAMILY, idx)
        _, full = sampling.random_subfamily_params(rng)
        state = build_state(full)
        if state.gamma != state.blocks:
            failures.append(f"sample {idx}: state not fixed by partial transpose")
            continue
        inert = blocks_inertia(state.gamma)
        if inert.n_neg:
            failures.append(f"sample {idx}: n_neg={inert.n_neg}")
            continue
        parts, dens = full.lifted
        factors = theorem_factors(parts)
        t1 = theorem1_from_factors(factors, dens)
        if theorem2_from_factors(factors, dens, t1) and not t1:
            failures.append(f"sample {idx}: theorem2 holds but theorem1 fails")
    return _result(
        not failures,
        "100/100 samples: gamma-fixed, PPT, theorem2 => theorem1",
        f"{100 - len(failures)}/100 samples pass" + (f"; first: {failures[0]}" if failures else ""),
    )


def item11() -> ItemResult:
    """Closed-form identities of the embedded Bruss-Peres family.

    Erratum: the reference forms once stated here were g = t f c* and
    F(mu, -lambda) = x (b c*)^3 w^2 / (|a|^2 |c|^2 |f|^4), with
    w = x|a|^2 - t|f|^2.  Under the embedding (j = c*, k = y = 0,
    l = -a*, m = x/c) a c* + j l* = 0, and with i = 0 the completion gives
    g = p* x a / (c f* s*) and q = -x a / (c s*).  So q = -f* forces
    s = x a* / (f c*), and i = 0 forces s p* = t; together they give
    g = p* = t f c* / (x a*), which equals t f c* only where x a* = 1 or
    t = 0.  The same completion gives
    F(mu, -lambda) = x b^3 c* w^2 / (a c |f|^4), off from the old form by
    the factor c*/a*.  Both corrected forms are asserted below and proved
    symbolically in tests/test_subfamily.py, which also shows that the
    old forms are not identities.
    """
    labels = (
        "d=0", "e=0", "i=0", "n=0", "r=0",
        "g=tfc*/(xa*)", "q=-f*", "h=bc*/f*",
        "F(l,-c)=-xba*", "F(mu,-lam) closed form",
    )
    fail_counts = dict.fromkeys(labels, 0)
    first_diff = None
    for idx in range(50):
        rng = sampling.rng_for(SEED_EMBED, idx)
        bp = sampling.random_bruss_peres_params(rng)
        sp = bruss_peres_embed(bp)
        full = derive_full_params(sp)
        t, x = GaussRat(bp.t), GaussRat(bp.x)
        a, b, c, f = bp.a, bp.b, bp.c, bp.f
        parts, dens = full.lifted
        _, _, form_l_c, form_mu_lam = theorem_factors(parts)[:4]
        weight = x * a.abs2() - t * f.abs2()
        claims = {
            "d=0": full.d == GaussRat(0),
            "e=0": full.e == GaussRat(0),
            "i=0": full.i == GaussRat(0),
            "n=0": full.n == GaussRat(0),
            "r=0": full.r == GaussRat(0),
            "g=tfc*/(xa*)": full.g == t * f * c.conj() / (x * a.conj()),
            "q=-f*": full.q == -f.conj(),
            "h=bc*/f*": full.h == b * c.conj() / f.conj(),
            "F(l,-c)=-xba*": factor_over(form_l_c, VECTOR_DEGREES[2], dens)
            == -(x * b * a.conj()),
            "F(mu,-lam) closed form": factor_over(form_mu_lam, VECTOR_DEGREES[3], dens)
            == x * b ** 3 * c.conj() * weight * weight
            / (a * c * GaussRat(f.abs2() ** 2)),
        }
        for label, holds in claims.items():
            if not holds:
                fail_counts[label] += 1
                if first_diff is None:
                    first_diff = f"sample {idx}: {label} fails"
    failing = [f"{label} ({count}/50)" for label, count in fail_counts.items() if count]
    ok = not failing
    return _result(
        ok,
        "all ten identities at 50/50 samples",
        "all hold" if ok else "failing: " + ", ".join(failing) + f"; first: {first_diff}",
    )


def item12() -> ItemResult:
    failures = []
    generic_count = 0
    for idx in range(100):
        rng = sampling.rng_for(SEED_STRUCTURAL, idx)
        p = sampling.random_checker_params(rng)
        state = build_state(p)
        vecs = build_vectors(p)
        # A block pair has the checkerboard pattern by construction; its cause
        # is that each generating vector lives on positions of one parity.
        if any(len({k % 2 for k, z in enumerate(vec) if z}) > 1 for vec in vecs):
            failures.append(f"sample {idx}: pattern")
            continue
        if partial_transpose_blocks(state.gamma) != state.blocks:
            failures.append(f"sample {idx}: involution")
            continue
        null = prime_block_null_basis(p)
        if any(sum((GaussRat(*z) * null[k, c] for k, z in enumerate(row)), ZERO)
               for row in state.blocks[0] for c in range(null.cols)):
            failures.append(f"sample {idx}: odd block times closed-form kernel != 0")
            continue
        span_odd = rank(GMat.from_rows([vecs[1], vecs[3]]))
        span_even = rank(GMat.from_rows([vecs[0], vecs[2]]))
        block_odd, block_even = _block_mats(state.blocks, GMat, GaussRat)
        if rank(block_odd) != span_odd or rank(block_even) != span_even:
            failures.append(f"sample {idx}: block rank != generator span rank")
            continue
        if span_odd == 2 and span_even == 2:
            generic_count += 1  # both blocks have rank 2 exactly here
    ok = not failures and generic_count >= 95
    return _result(
        ok,
        "pattern, involution, kernel product, rank-2 blocks on generic samples (>=95)",
        f"{100 - len(failures)}/100 pass, {generic_count} generic"
        + (f"; first: {failures[0]}" if failures else ""),
    )


def item13() -> ItemResult:
    """Theorem 1's range claim, decided exactly on both kinds of point.

    A certified-generic point is a hit wherever ``range_has_no_product_vector``
    does not certify its range.  A single-letter point's range is spanned by
    the basis vector |i>|j> at the letter's position 3i+j, and it is a hit
    when that product vector lies in the range: appending it to the
    generating vectors leaves their rank unchanged.
    """
    failures = []
    found_generic = 0
    for idx in range(20):
        rng = sampling.rng_for(SEED_RANGE, idx)
        while True:
            p = sampling.random_checker_params(rng)
            if theorem1_product(p):
                break
        if not range_has_no_product_vector(p):
            found_generic += 1
            failures.append(f"generic sample {idx}: range not certified")
    found_degenerate = 0
    position = {ch: pos for vec in placed_vectors({ch: ch for ch in PARAM_LETTERS})
                for pos, ch in vec}
    for idx in range(20):
        rng = sampling.rng_for(SEED_RANGE, 1000 + idx)
        letter = PARAM_LETTERS[idx % len(PARAM_LETTERS)]
        value = sampling.random_nonzero_gauss(rng)
        vecs = build_vectors(CheckerParams.from_dict({letter: value}))
        basis = tuple(GaussRat(int(k == position[letter])) for k in range(9))
        if rank(GMat.from_rows(vecs + (basis,))) == rank(GMat.from_rows(vecs)):
            found_degenerate += 1
        else:
            failures.append(f"degenerate sample {idx} (letter {letter}): product vector not in range")
    ok = found_generic == 0 and found_degenerate == 20
    return _result(
        ok,
        "0/20 hits on certified-generic, 20/20 hits on degenerate",
        f"{found_generic}/20 generic hits, {found_degenerate}/20 degenerate hits"
        + (f"; first: {failures[0]}" if failures else ""),
    )


ITEMS = (
    ReproItem(1, "golden matrix, reduction-violating example", item01),
    ReproItem(2, "golden matrix, one-distillable example", item02),
    ReproItem(3, "partial-transpose determinant and inertia, first example", item03),
    ReproItem(4, "partial-transpose determinant and inertia, second example", item04),
    ReproItem(5, "witness expectation and Schmidt rank", item05),
    ReproItem(6, "reduction criterion on both examples", item06),
    ReproItem(7, "state ranks and genericity of both examples", item07),
    ReproItem(8, "Jacobian rank of the two-column map", item08),
    ReproItem(9, "Jacobian rank of the fixed-point map", item09),
    ReproItem(10, "random subfamily states are gamma-fixed PPT", item10),
    ReproItem(11, "embedded-family closed-form identities", item11),
    ReproItem(12, "structural properties on random parameters", item12),
    ReproItem(13, "exact range test for product vectors", item13),
)


def run_all(write=None) -> bool:
    """Run every item, emitting one PASS/FAIL line each; True iff all pass."""
    emit = write if write is not None else (lambda line: None)
    all_ok = True
    for item in ITEMS:
        res = item.run()
        status = "PASS" if res.ok else "FAIL"
        emit(f"ITEM {item.number:02d} {status} {item.title}")
        emit(f"        expected: {res.expected}")
        emit(f"        computed: {res.computed}")
        all_ok = all_ok and res.ok
    return all_ok
