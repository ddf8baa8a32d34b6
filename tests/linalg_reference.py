"""Exact echelon forms, kernel bases and span comparisons, used only by the tests.

They check the closed-form kernel of the odd block and the rank-nullity
theorem against ``checkerboard.matrices.rank``, and the reduced echelon
form is the oracle of its permutation property.
"""

from checkerboard.errors import DimensionError
from checkerboard.gaussian import GaussRat
from checkerboard.matrices import GMat, rank


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
