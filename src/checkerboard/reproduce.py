"""Golden reference checks: every frozen reference value, re-derived and compared.

Each item recomputes one claim from scratch and compares against the
frozen constants in ``GOLDEN``.  The items double as the acceptance suite
(tests/test_acceptance.py) and as the CLI ``reproduce`` command.  All
randomized items use fixed seeds, so reports are byte-identical between
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import presets, sampling
from .charpoly import Inertia, inertia
from .counting import jacobian_rank_lambda, jacobian_rank_psi
from .criteria import (
    partial_transpose_matrix,
    reduction_criterion,
    schmidt_rank,
    search_product_vector_numeric,
    witness_expectation,
)
from .family import (
    CheckerParams,
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
from .gaussian import GaussRat
from .matrices import GMat, det, rank
from .subfamily import bruss_peres_embed, derive_full_params, theorem2_from_theorem1

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
SEED_NUMERIC = 1111


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


def _item_golden_matrix(params, matrix, normalizer) -> ItemResult:
    state = build_state(params)
    ok = state.unnormalized == matrix and state.normalizer == normalizer
    mismatches = sum(
        1
        for r in range(9)
        for c in range(9)
        if state.unnormalized[r, c] != matrix[r, c]
    )
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
    # rho^Gamma = G/N for the unnormalized G, so det(rho^Gamma) = det(G)/N^9.
    gamma = partial_transpose_matrix(state.unnormalized)
    d = det(gamma) / GaussRat(state.normalizer ** 9)
    inert = inertia(gamma)
    want_det = GOLDEN[det_key]
    want_inert = GOLDEN["pt_inertia"]
    ok = (not d.im) and d.re == want_det and inert == want_inert
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
    r1 = rank(_first_state().unnormalized)
    r2 = rank(_second_state().unnormalized)
    t1 = theorem1_generic(presets.REDUCTION_VIOLATING_PARAMS)
    t2 = theorem1_generic(presets.ONE_DISTILLABLE_PARAMS)
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
        gamma = partial_transpose_matrix(state.grid)
        if gamma != state.grid:
            failures.append(f"sample {idx}: state not fixed by partial transpose")
            continue
        inert = inertia(gamma)
        if inert.n_neg:
            failures.append(f"sample {idx}: n_neg={inert.n_neg}")
            continue
        t1 = theorem1_product(full)
        if theorem2_from_theorem1(full, t1) and not t1:
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
        form = quad_form_F(full)
        lam, mu = lambda_mu(full)
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
            "F(l,-c)=-xba*": form.evaluate(full.l, -full.c) == -(x * b * a.conj()),
            "F(mu,-lam) closed form": form.evaluate(mu, -lam)
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
        m = state.unnormalized
        if not has_checkerboard_pattern(m):
            failures.append(f"sample {idx}: pattern")
            continue
        if partial_transpose_matrix(partial_transpose_matrix(m)) != m:
            failures.append(f"sample {idx}: involution")
            continue
        block_odd, block_even = checkerboard_split(state)
        null = prime_block_null_basis(p)
        prod = block_odd @ null
        if any(prod.data):
            failures.append(f"sample {idx}: odd block times closed-form kernel != 0")
            continue
        vecs = build_vectors(p)
        span_odd = rank(GMat.from_rows([vecs[1], vecs[3]]))
        span_even = rank(GMat.from_rows([vecs[0], vecs[2]]))
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
    failures = []
    found_generic = 0
    for idx in range(20):
        rng = sampling.rng_for(SEED_NUMERIC, idx)
        while True:
            p = sampling.random_checker_params(rng)
            if theorem1_generic(p):
                break
        hit = search_product_vector_numeric(p, attempts=200, tolerance=1e-8,
                                            seed=SEED_NUMERIC + idx)
        if hit is not None:
            found_generic += 1
            failures.append(f"generic sample {idx}: residual {hit.residual:.3e}")
    found_degenerate = 0
    letters = "abcdefghijklmnpqrs"
    for idx in range(20):
        rng = sampling.rng_for(SEED_NUMERIC, 1000 + idx)
        letter = letters[idx % len(letters)]
        value = sampling.random_nonzero_gauss(rng)
        p = CheckerParams.from_dict({letter: value})
        hit = search_product_vector_numeric(p, attempts=200, tolerance=1e-8,
                                            seed=SEED_NUMERIC + 1000 + idx)
        if hit is None:
            failures.append(f"degenerate sample {idx} (letter {letter}): nothing found")
        else:
            found_degenerate += 1
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
    ReproItem(13, "numeric product-vector search consistency", item13),
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
