"""Exact kernel bases and span comparisons, used only by the tests.

They check the closed-form kernel of the odd block and the rank-nullity
theorem against ``checkerboard.matrices.rank``.
"""

from checkerboard.errors import DimensionError
from checkerboard.gaussian import GaussRat
from checkerboard.matrices import GMat, _row_echelon, rank


def nullspace_basis(m: GMat) -> GMat:
    """Matrix whose columns span ker(m) exactly; zero columns mean trivial kernel."""
    grid, pivots = _row_echelon(m)
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
