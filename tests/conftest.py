import dataclasses
import sys
import tracemalloc

import hypothesis
import numpy as np

from symclone import cloner, symspace

# first calls populate lru caches, which can trip the per-example deadline
hypothesis.settings.register_profile("default", deadline=None)
hypothesis.settings.load_profile("default")


def traced_peak(fn):
    """fn()'s result and the peak of the memory traced while it ran.

    Tracing stops in a finally, so a call that raises cannot leave it on
    for the tests after it, whose peaks would then start from this one's.
    """
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def clear_plan_caches():
    """Forget every basis, table and reduced map: the moves and hop
    entries live on their basis and the channel plan on its table."""
    symspace.enumerate_basis.cache_clear()
    cloner.clone_amplitudes.cache_clear()
    cloner.reduced_map.cache_clear()


def swap_in_row(i):
    """Entry 0 of row i swapped with the row's first unequal entry, which
    keeps every row's normalization."""

    def swap(occupancy):
        row = occupancy[i]
        other = np.flatnonzero(row != row[0])
        if other.size:
            row[0], row[other[0]] = row[other[0]], row[0]

    return swap


def swap_columns(occupancy):
    """Columns 0 and 1 swapped, where the table has two."""
    if occupancy.shape[1] > 1:
        occupancy[:, [0, 1]] = occupancy[:, [1, 0]]


def raise_level_sums(monkeypatch):
    """A mutant whose level sums are each one too large."""
    exact = cloner.level_sums
    monkeypatch.setattr(cloner, "level_sums", lambda d, m, l: exact(d, m, l) + 1)


def mutate_tables(swap):
    """A mutant that applies swap to a copy of every table's occupancy and
    returns the list of the mutated tables, which grows as they are built."""

    def install(monkeypatch):
        original = cloner.clone_amplitudes
        tables = []

        def mutated(d, m, l):
            amps = original.__wrapped__(d, m, l)
            occupancy = amps.occupancy.copy()
            swap(occupancy)
            tables.append(dataclasses.replace(amps, occupancy=occupancy))
            return tables[-1]

        # every module that binds the function, as a real bug would reach them all
        for name, module in list(sys.modules.items()):
            binds = getattr(module, "clone_amplitudes", None) is original
            if name.startswith("symclone") and binds:
                monkeypatch.setattr(module, "clone_amplitudes", mutated)
        return tables

    return install
