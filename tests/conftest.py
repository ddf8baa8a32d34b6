"""Shared strategies and fixtures."""
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from checkerboard.gaussian import GaussRat

small_fractions = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=4)
)
small_gauss = st.builds(GaussRat, small_fractions, small_fractions)
nonzero_gauss = small_gauss.filter(bool)
# About three entries in four are zero, so matrices split into several blocks.
sparse_gauss = st.tuples(st.integers(0, 3), small_gauss).map(
    lambda pick: pick[1] if pick[0] == 0 else GaussRat(0)
)


def gauss_matrix(rows, cols, entries=small_gauss):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    )


def hermitian_matrix(n, entries=small_gauss):
    """Strategy for random Hermitian n x n matrices over the Gaussian rationals.

    ``entries`` draws the strictly lower triangle; the diagonal is always
    drawn from ``small_fractions``.
    """
    def assemble(diag, lower):
        from checkerboard.matrices import GMat
        grid = [[GaussRat(0)] * n for _ in range(n)]
        it = iter(lower)
        for r in range(n):
            grid[r][r] = GaussRat(diag[r])
            for c in range(r):
                z = next(it)
                grid[r][c] = z
                grid[c][r] = z.conj()
        return GMat.from_rows(grid)

    return st.builds(
        assemble,
        st.lists(small_fractions, min_size=n, max_size=n),
        st.lists(entries, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
    )


@pytest.fixture
def rng():
    import random
    return random.Random(20250810)
