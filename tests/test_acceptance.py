"""Acceptance suite: every golden criterion, one PASS/FAIL line each.

Each criterion is implemented in checkerboard.reproduce (shared with the
CLI ``reproduce`` command).  Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.

Criterion 11 checks the embedded-family identities with two reference
forms corrected from their originally stated versions (g = t f c* became
g = t f c* / (x a*), and the F(mu, -lambda) closed form lost a stray
factor c*/a*); the erratum is recorded in item11's docstring and README,
and tests/test_subfamily.py proves the corrected forms symbolically.
"""

import pytest

from checkerboard.reproduce import ITEMS


@pytest.mark.parametrize("item", ITEMS, ids=[f"criterion_{i.number:02d}" for i in ITEMS])
def test_acceptance_criterion(item):
    result = item.run()
    status = "PASS" if result.ok else "FAIL"
    print(f"ACCEPTANCE {item.number:02d} {status} {item.title} "
          f"[expected: {result.expected}] [computed: {result.computed}]")
    assert result.ok, (
        f"criterion {item.number} ({item.title}): "
        f"expected {result.expected}, computed {result.computed}"
    )


def test_all_thirteen_criteria_present():
    assert [item.number for item in ITEMS] == list(range(1, 14))


def test_reproduce_reads_only_block_pairs():
    """Every item reads the block pair: no 9x9 definition runs, and items 3 and 4
    take their determinants through ``det`` and ``char_poly`` on the blocks."""
    import sys

    from checkerboard import reproduce

    called = set()

    def record(frame, event, arg):
        if event == "call" and "checkerboard" in frame.f_code.co_filename:
            called.add(frame.f_code.co_name)

    sys.setprofile(record)
    try:
        assert reproduce.run_all()
    finally:
        sys.setprofile(None)
    assert not called & {"partial_transpose_matrix", "kron", "outer_sum_entries"}
    assert {"det", "char_poly", "blocks_inertia"} <= called
