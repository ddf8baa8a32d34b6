#!/usr/bin/env python3
"""Survey the Jacobian rank of the fixed-point subfamily map on random points.

The rank at any single point is a lower bound for the number of
independent real parameters of the unnormalized family (subtract one for
the normalized family).  The survey reports the observed distribution and
maximum; the maximum over samples is itself only a sampled lower bound.
The variable-column rank (one column per parameter) is reported next to
the full real-slot rank.
"""

import argparse
import sys
from collections import Counter

from checkerboard import sampling
from checkerboard.counting import (
    jacobian_rank_lambda,
    jacobian_rank_lambda_real_slots,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--real-slots", action="store_true",
                    help="also compute the 23-real-slot rank (slower)")
    args = ap.parse_args()
    if args.samples < 1:
        ap.error("samples must be >= 1")

    variable_ranks = Counter()
    slot_ranks = Counter()
    for idx in range(args.samples):
        rng = sampling.rng_for(args.seed, idx)
        sp, _ = sampling.random_subfamily_params(rng)
        variable_ranks[jacobian_rank_lambda(sp)] += 1
        if args.real_slots:
            slot_ranks[jacobian_rank_lambda_real_slots(sp)] += 1

    print(f"samples: {args.samples}")
    print("variable-column rank distribution:")
    for rank_value in sorted(variable_ranks):
        print(f"  rank {rank_value}: {variable_ranks[rank_value]}")
    vmax = max(variable_ranks)
    print(f"max observed: {vmax} (normalized-family lower bound {vmax - 1})")
    if args.real_slots:
        print("real-slot rank distribution:")
        for rank_value in sorted(slot_ranks):
            print(f"  rank {rank_value}: {slot_ranks[rank_value]}")
        print(f"max observed: {max(slot_ranks)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
