#!/usr/bin/env python3
"""Cloning fidelity versus number of copies, closed form next to simulation.

As the copy count grows the single-copy fidelity of n -> m cloning falls
toward the measure-and-prepare value (n+1)/(n+d); every cell is
cross-checked by actually running the channel.
"""

import argparse
from fractions import Fraction

from symclone.closed_forms import fidelity
from symclone.cloner import clone_amplitudes, uqcm_pure_output
from symclone.symspace import enumerate_basis, reduce_one


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=2, help="levels per system")
    parser.add_argument("--n", type=int, default=1, help="input copies")
    parser.add_argument("--max-m", type=int, default=20, help="largest copy count")
    args = parser.parse_args()

    limit = Fraction(args.n + 1, args.n + args.d)
    print(f"d={args.d} n={args.n}  limit (n+1)/(n+d) = {limit} = {float(limit):.8f}")
    print(f"{'m':<4} {'fidelity':<12} {'float':<12} {'simulated':<12}")
    for m in range(args.n, args.max_m + 1):
        f = fidelity(args.d, args.n, m)
        red = reduce_one(uqcm_pure_output(args.d, args.n, m))
        simulated = f"{red.entries[0, 0].real:.10f}"
        print(f"{m:<4} {str(f):<12} {float(f):<12.10f} {simulated:<12}")
        # the caches would keep every m's tables and bases
        clone_amplitudes.cache_clear()
        enumerate_basis.cache_clear()


if __name__ == "__main__":
    main()
