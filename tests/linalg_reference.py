"""Matrix algebra, echelon forms, kernel bases and span comparisons, used only by the tests.

The package's ``GMat`` and ``ZMat`` are bare grids: every matrix it
classifies is a block pair.  The free functions here are the algebra the
tests need to state 9x9 definitions and identities (sums, products,
Kronecker powers, the integer lift), and ``inertia`` counts one whole
Hermitian ``ZMat`` as a single block.  The echelon forms check the
closed-form kernel of the odd block and the rank-nullity theorem against
``checkerboard.matrices.rank``, and the reduced echelon form is the
oracle of its permutation property.
"""

from math import lcm

from checkerboard.charpoly import Inertia, blocks_inertia
from checkerboard.criteria import reduction_blocks
from checkerboard.errors import DimensionError
from checkerboard.gaussian import GaussInt, GaussRat
from checkerboard.matrices import GMat, ZMat, rank, require_hermitian


def integer_lift(m: GMat) -> tuple:
    """(d*m as a ZMat, d) for the least common denominator d of m's entries."""
    d = lcm(*(z.d for z in m.data))
    ints = [GaussInt(z.x * (d // z.d), z.y * (d // z.d)) for z in m.data]
    return ZMat(m.rows, m.cols, ints), d


def over(m: ZMat, den: int) -> GMat:
    """The integer grid ``m`` divided by the positive integer ``den``, as a GMat."""
    return GMat(m.rows, m.cols, [z.over(den) for z in m.data])


def zeros(rows: int, cols: int) -> GMat:
    return GMat(rows, cols, [GaussRat(0)] * (rows * cols))


def identity(n: int) -> GMat:
    return GMat(n, n, [GaussRat(1 if r == c else 0) for r in range(n) for c in range(n)])


def reduction_matrices(s) -> list:
    """The block pairs of D^2 N (rho_A (x) 1 - rho) and D^2 N (1 (x) rho_B - rho).

    ``criteria.reduction_blocks`` yields their blocks one at a time, in
    that order; consecutive blocks pair up.
    """
    blocks = reduction_blocks(s)
    return list(zip(blocks, blocks))


def _same_shape(a, b):
    if a.shape() != b.shape():
        raise DimensionError(f"shape mismatch {a.shape()} vs {b.shape()}")


def add(a: GMat, b: GMat) -> GMat:
    _same_shape(a, b)
    return GMat(a.rows, a.cols, [x + y for x, y in zip(a.data, b.data)])


def sub(a: GMat, b: GMat) -> GMat:
    _same_shape(a, b)
    return GMat(a.rows, a.cols, [x - y for x, y in zip(a.data, b.data)])


def scale(m: GMat, s) -> GMat:
    return GMat(m.rows, m.cols, [x * s for x in m.data])


def matmul(a: GMat, b: GMat) -> GMat:
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.shape()} by {b.shape()}")
    return GMat(a.rows, b.cols, [sum((x * b[k, c] for k, x in enumerate(a.row(r))), GaussRat(0))
                                 for r in range(a.rows) for c in range(b.cols)])


def transpose(m):
    return type(m)(m.cols, m.rows, [m[r, c] for c in range(m.cols) for r in range(m.rows)])


def conj_transpose(m: GMat) -> GMat:
    return GMat(m.cols, m.rows, [m[r, c].conj() for c in range(m.cols) for r in range(m.rows)])


def submatrix(m, row_idx, col_idx):
    return type(m)(len(row_idx), len(col_idx), [m[r, c] for r in row_idx for c in col_idx])


def trace(m):
    if m.rows != m.cols:
        raise DimensionError("trace of non-square matrix")
    return sum(m[d, d] for d in range(m.rows))


def inertia(m: ZMat) -> Inertia:
    """Exact (negative, zero, positive) eigenvalue counts of a Hermitian ZMat, as one block."""
    if m.rows != m.cols:
        raise DimensionError("inertia of non-square matrix")
    require_hermitian(m, "inertia input")
    return blocks_inertia([[[(z.re, z.im) for z in m.row(r)] for r in range(m.rows)]])


def reduced_row_echelon(m: GMat):
    """Reduced row echelon form by Gauss-Jordan elimination; returns (grid, pivot_columns)."""
    grid = [list(m.row(r)) for r in range(m.rows)]
    pivots = []
    lead = 0
    for c in range(m.cols):
        piv = None
        for r in range(lead, m.rows):
            if grid[r][c]:
                piv = r
                break
        if piv is None:
            continue
        grid[lead], grid[piv] = grid[piv], grid[lead]
        inv = grid[lead][c]
        grid[lead] = [x / inv for x in grid[lead]]
        for r in range(m.rows):
            if r != lead and grid[r][c]:
                f = grid[r][c]
                grid[r] = [x - f * y for x, y in zip(grid[r], grid[lead])]
        pivots.append(c)
        lead += 1
        if lead == m.rows:
            break
    return grid, pivots


def nullspace_basis(m: GMat) -> GMat:
    """Matrix whose columns span ker(m) exactly; zero columns mean trivial kernel."""
    grid, pivots = reduced_row_echelon(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    basis_cols = []
    for fc in free_cols:
        vec = [GaussRat(0)] * m.cols
        vec[fc] = GaussRat(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -grid[prow][fc]
        basis_cols.append(vec)
    data = [basis_cols[c][r] for r in range(m.cols) for c in range(len(basis_cols))]
    return GMat(m.cols, len(basis_cols), data)


def column_spans_equal(a: GMat, b: GMat) -> bool:
    """True iff the column spans of two matrices with equal row counts coincide."""
    if a.rows != b.rows:
        raise DimensionError("row-count mismatch")
    ra = rank(a)
    rb = rank(b)
    if ra != rb:
        return False
    joint = GMat(a.rows, a.cols + b.cols,
                 [x for r in range(a.rows) for x in (a.row(r) + b.row(r))])
    return rank(joint) == ra
