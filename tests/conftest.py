"""Shared strategies and fixtures."""
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from checkerboard.family import PARAM_LETTERS, CheckerParams
from checkerboard.gaussian import GaussRat
from checkerboard.subfamily import COMPLEX_LETTERS, SubfamilyParams

small_fractions = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=4)
)
small_gauss = st.builds(GaussRat, small_fractions, small_fractions)
nonzero_gauss = small_gauss.filter(bool)
# About three entries in four are zero, so matrices split into several blocks.
sparse_gauss = st.tuples(st.integers(0, 3), small_gauss).map(
    lambda pick: pick[1] if pick[0] == 0 else GaussRat(0)
)




def digit_fractions(digits):
    """Fractions whose numerator and denominator have exactly ``digits`` digits."""
    size = st.integers(10 ** (digits - 1), 10 ** digits - 1)
    return st.builds(lambda sign, num, den: Fraction(sign * num, den),
                     st.sampled_from((-1, 1)), size, size)


big_fractions = digit_fractions(20)
big_gauss = st.builds(GaussRat, big_fractions, big_fractions)


def checker_points(entries):
    return st.builds(CheckerParams, **{ch: entries for ch in PARAM_LETTERS})


single_nonzero_points = st.builds(
    lambda ch, z: CheckerParams.from_dict({ch: z}), st.sampled_from(PARAM_LETTERS), nonzero_gauss
)


def subfamily_points(reals, entries, required=nonzero_gauss, required_letters="abf"):
    """Points with ``required_letters`` drawn from ``required``: the completion divides by a, b, f."""
    fields = {"t": reals, "x": reals, "y": reals}
    fields.update({ch: required if ch in required_letters else entries for ch in COMPLEX_LETTERS})
    return st.builds(SubfamilyParams, **fields)


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


def hermitian_grid(n, entries=small_gauss):
    """Random Hermitian n x n ``ZMat``s: ``hermitian_matrix`` over its common denominator."""
    from checkerboard.matrices import integer_lift

    return hermitian_matrix(n, entries).map(lambda m: integer_lift(m)[0])


@pytest.fixture
def rng():
    import random
    return random.Random(20250810)
