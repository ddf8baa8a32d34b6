"""Exact construction and certification of checkerboard two-qutrit states."""

from .charpoly import Inertia, char_poly, inertia
from .criteria import (
    ProductVector,
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
from .counting import (
    jacobian_rank_lambda,
    jacobian_rank_lambda_real_slots,
    jacobian_rank_psi,
    lambda_map,
    psi_map,
)
from .errors import (
    CheckerboardError,
    DegenerateStateError,
    DimensionError,
    ParseError,
    PatternError,
    SingularParameterError,
    SymmetryError,
)
from .family import (
    CheckerParams,
    QuadForm,
    StateMatrix,
    build_state,
    build_vectors,
    checkerboard_split,
    lambda_mu,
    prime_block_null_basis,
    quad_form_F,
    state_rank,
    theorem1_generic,
    theorem1_product,
)
from .gaussian import GaussInt, GaussRat, lift_to_integers, parse_gauss
from .jets import Jet, jet_complex_var, jet_const, jet_rank, jet_real_var
from .matrices import GMat, ZMat, det, integer_lift, kron, nullspace_basis, rank
from .subfamily import (
    BrussPeresParams,
    SubfamilyParams,
    bruss_peres_embed,
    derive_full_params,
    fixed_point_conditions,
    fixed_point_defects,
    theorem2_generic,
    theorem2_product,
)

__version__ = "0.1.0"
