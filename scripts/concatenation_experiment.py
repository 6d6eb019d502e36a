#!/usr/bin/env python3
"""Two-stage cloning against direct cloning over a whole (n, m, l) grid.

Cloning n -> m and then feeding the (mixed, entangled) output into a second
cloner for m -> l lands on exactly the direct n -> l output; the printed
deviation is the worst matrix entry difference per triple, as the concat
verification suite records it.
"""

import argparse

from symclone.verify import concat_suite


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=3, help="levels per system")
    parser.add_argument("--max-l", type=int, default=6, help="largest copy count")
    args = parser.parse_args()

    worst = 0.0
    print(f"{'n':<3} {'m':<3} {'l':<3} {'max deviation':<14}")
    for case in concat_suite(dims=(args.d,), max_l=args.max_l).cases:
        n, m, l = (case.params[key] for key in "nml")
        worst = max(worst, case.residual)
        print(f"{n:<3} {m:<3} {l:<3} {case.residual:<14.3e}")
    print(f"worst over the grid: {worst:.3e}")


if __name__ == "__main__":
    main()
