#!/usr/bin/env python3
"""Print one sha256 over the bytes of many clone outputs.

Each cell (d, m, l) gets a Ginibre draw, a Hermitian draw, and the Ginibre
draw with a row and a column of -0.0, a NaN and an infinite imaginary part.
Each draw is cloned to l, and that output once more to l + 1, a chain
that composes to one clone of the draw.  The digest covers, per output, the
reduce_one bytes (through the reduced map and the source's own entries)
and the dense entries where the output has at most 2**16 of them.  Two
trees that print the same digest give the same bits on this grid.  BLAS
kernels sum in machine-dependent orders, so compare digests from one
machine, with OPENBLAS_NUM_THREADS=1.
"""

import argparse
import hashlib

import numpy as np

from symclone.cloner import clone_amplitudes, clone_channel, reduced_map
from symclone.oracle import ginibre_sym_operator, hermitian_sym_operator
from symclone.symspace import SymOperator, dim, enumerate_basis, reduce_one

GRID = [(d, m, l) for d in range(2, 6) for m in range(0, 5) for l in range(max(m, 1), m + 5)]
# the benchmark's clone cells, one past the dense guard, the large cells,
# and three whose tables are past the guard
CELLS = GRID + [
    (2, 20, 400), (3, 6, 30), (4, 4, 16), (5, 2, 10), (3, 20, 24), (2, 1, 200),
    (3, 2, 20), (3, 1, 100), (4, 1, 30), (3, 2, 200),
    (4, 1, 114), (5, 2, 35), (3, 1, 830), (6, 1, 20),
    (4, 1, 300), (5, 2, 60), (3, 1, 2000),
]
DENSE_ENTRIES = 1 << 16


def non_finite(x):
    """x with a row and a column of -0.0, a NaN and an infinite imaginary part."""
    e = np.array(x.entries)
    e[0, :] = e[:, 0] = complex(-0.0, -0.0)
    e[-1, -1] = complex(np.nan, 1.0)
    e[-1, 0] = complex(1.0, np.inf)
    return SymOperator(x.basis, e)


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    digest = hashlib.sha256()
    outputs = 0
    # NaN and inf make the products warn
    with np.errstate(invalid="ignore", over="ignore"):
        for d, m, l in CELLS:
            g, h = (make(d, m, np.random.default_rng([d, m, l]))
                    for make in (ginibre_sym_operator, hermitian_sym_operator))
            for x in (g, h, non_finite(g)):
                first = clone_channel(x, l)
                for out in (first, clone_channel(first, l + 1)):
                    digest.update(reduce_one(out).entries.tobytes())
                    # dim, not the basis, which the basis guard refuses at (4, 1, 300)
                    if dim(d, out.m) ** 2 <= DENSE_ENTRIES:
                        digest.update(out.entries.tobytes())
                    outputs += 1
            # the caches would keep every cell's tables, plans and maps
            clone_amplitudes.cache_clear()
            reduced_map.cache_clear()
            enumerate_basis.cache_clear()
    print(f"{outputs} outputs over {len(CELLS)} cells: sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
