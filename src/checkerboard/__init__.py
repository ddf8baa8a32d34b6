"""Exact construction and certification of checkerboard two-qutrit states."""

from .charpoly import Inertia, char_poly
from .criteria import (
    RangeCertificate,
    WitnessVector,
    is_ppt,
    partial_transpose_matrix,
    range_has_no_product_vector,
    reduction_criterion,
    schmidt_rank,
    witness_expectation,
)
from .counting import (
    jacobian_rank_lambda,
    jacobian_rank_lambda_real_slots,
    jacobian_rank_psi,
)
from .errors import (
    CheckerboardError,
    DegenerateStateError,
    DimensionError,
    ParseError,
    SingularParameterError,
    SymmetryError,
)
from .family import (
    CheckerParams,
    StateMatrix,
    build_state,
    build_vectors,
    prime_block_null_basis,
    state_rank,
    theorem1_product,
)
from .gaussian import GaussInt, GaussRat, lift_to_integers, parse_gauss
from .jets import Jet, jet_complex_var, jet_rank, jet_real_var
from .matrices import GMat, ZMat, det, kron, rank
from .subfamily import (
    BrussPeresParams,
    SubfamilyParams,
    bruss_peres_embed,
    derive_full_params,
    theorem2_product,
)

__version__ = "0.1.0"
